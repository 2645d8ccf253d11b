// Crash-safety test suite: checkpoint corruption matrix, atomic-write fault
// injection, NaN hardening and bit-identical resume equivalence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/workflow.hpp"
#include "core_util/error.hpp"
#include "core_util/fault.hpp"
#include "tensor/serialize.hpp"

namespace moss {
namespace {

using core::AlignConfig;
using core::AlignReport;
using core::MossWorkflow;
using core::PretrainConfig;
using core::PretrainReport;
using core::WorkflowConfig;
using tensor::CheckpointFile;
using tensor::ParameterSet;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// helpers

/// Guard that disarms every fault site on scope exit, so a failing
/// EXPECT_THROW cannot leak an armed fault into later tests.
struct FaultGuard {
  ~FaultGuard() { testing::disarm_all_faults(); }
};

void fill_params(ParameterSet& params, float base) {
  params.add("enc.w", Tensor::zeros(2, 3));
  params.add("head.b", Tensor::zeros(1, 4));
  std::vector<float>& a = params.tensors()[0].data();
  std::vector<float>& b = params.tensors()[1].data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = base + 0.25f * static_cast<float>(i);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = -base + 0.5f * static_cast<float>(i);
  }
}

std::vector<std::vector<float>> dump(const ParameterSet& params) {
  std::vector<std::vector<float>> out;
  for (const Tensor& t : params.tensors()) out.push_back(t.data());
  return out;
}

std::string save_to_string(const ParameterSet& params) {
  std::ostringstream out;
  tensor::save_parameters(out, params);
  return out.str();
}

void load_from_string(const std::string& bytes, ParameterSet& params) {
  std::istringstream in(bytes);
  tensor::load_parameters(in, params);
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_f32(std::string& buf, float v) {
  char raw[4];
  std::memcpy(raw, &v, 4);
  buf.append(raw, 4);
}

/// Hand-rolled legacy v0 stream: magic "MOSSCKPT" | u64 count |
/// per param: u64 name_len, name, u64 rows, u64 cols, f32 data.
std::string v0_bytes(const ParameterSet& params) {
  std::string buf("MOSSCKPT");
  put_u64(buf, params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& t = params.tensors()[i];
    put_u64(buf, params.names()[i].size());
    buf += params.names()[i];
    put_u64(buf, t.rows());
    put_u64(buf, t.cols());
    for (const float v : t.data()) put_f32(buf, v);
  }
  return buf;
}

void remove_ckpt(const std::string& base) {
  for (const char* suffix : {"", ".best", ".tmp"}) {
    std::remove((base + suffix).c_str());
  }
}

WorkflowConfig tiny_config() {
  WorkflowConfig cfg;
  cfg.model.hidden = 12;
  cfg.model.rounds = 1;
  cfg.dataset.sim_cycles = 200;
  cfg.encoder = {1024, 12, 5};
  cfg.fine_tune.epochs = 1;
  cfg.fine_tune.max_pairs_per_epoch = 4000;
  cfg.pretrain.epochs = 4;
  cfg.pretrain.lr = 3e-3f;
  cfg.align.epochs = 4;
  cfg.align.batch_size = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// corruption matrix

TEST(CkptFormat, V1RoundTrip) {
  ParameterSet src;
  fill_params(src, 1.0f);
  ParameterSet dst;
  fill_params(dst, 9.0f);
  load_from_string(save_to_string(src), dst);
  EXPECT_EQ(dump(src), dump(dst));
}

TEST(CkptFormat, TruncationAtEveryByteDetected) {
  ParameterSet src;
  fill_params(src, 1.0f);
  const std::string bytes = save_to_string(src);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ParameterSet dst;
    fill_params(dst, 9.0f);
    const auto before = dump(dst);
    EXPECT_THROW(load_from_string(bytes.substr(0, len), dst), Error)
        << "truncation to " << len << " bytes loaded silently";
    EXPECT_EQ(dump(dst), before)
        << "truncation to " << len << " bytes partially overwrote params";
  }
}

TEST(CkptFormat, SingleBitFlipInEveryByteDetected) {
  ParameterSet src;
  fill_params(src, 1.0f);
  const std::string bytes = save_to_string(src);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const char mask : {char(0x01), char(0x80)}) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ mask);
      ParameterSet dst;
      fill_params(dst, 9.0f);
      const auto before = dump(dst);
      EXPECT_THROW(load_from_string(corrupt, dst), Error)
          << "bit flip at byte " << i << " loaded silently";
      EXPECT_EQ(dump(dst), before)
          << "bit flip at byte " << i << " partially overwrote params";
    }
  }
}

TEST(CkptFormat, VersionMismatchNamesVersions) {
  ParameterSet src;
  fill_params(src, 1.0f);
  std::string bytes = save_to_string(src);
  ASSERT_GT(bytes.size(), 12u);
  bytes[8] = 99;  // u32 format_version field follows the 8-byte magic
  ParameterSet dst;
  fill_params(dst, 9.0f);
  try {
    load_from_string(bytes, dst);
    FAIL() << "version 99 checkpoint loaded";
  } catch (const ContextError& e) {
    EXPECT_NE(e.message().find("version"), std::string::npos) << e.what();
    EXPECT_NE(e.message().find("99"), std::string::npos) << e.what();
  }
}

TEST(CkptFormat, BadMagicRejected) {
  ParameterSet dst;
  fill_params(dst, 9.0f);
  try {
    load_from_string("GARBAGE!not a checkpoint at all........", dst);
    FAIL() << "garbage loaded";
  } catch (const ContextError& e) {
    EXPECT_NE(e.message().find("magic"), std::string::npos) << e.what();
  }
}

TEST(CkptFormat, ShapeMismatchNamesParam) {
  ParameterSet src;
  fill_params(src, 1.0f);
  ParameterSet dst;
  dst.add("enc.w", Tensor::zeros(3, 3));  // wrong shape for enc.w (2x3)
  dst.add("head.b", Tensor::zeros(1, 4));
  try {
    load_from_string(save_to_string(src), dst);
    FAIL() << "shape mismatch loaded";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("param"), "enc.w") << e.what();
  }
}

TEST(CkptFormat, MissingSectionNamed) {
  ParameterSet src;
  fill_params(src, 1.0f);
  const CheckpointFile full =
      CheckpointFile::read_string(save_to_string(src), ErrorContext());
  CheckpointFile pruned;
  for (const auto& [name, payload] : full.sections()) {
    if (name != "param:head.b") pruned.set(name, payload);
  }
  std::ostringstream out;
  pruned.write(out);
  ParameterSet dst;
  fill_params(dst, 9.0f);
  const auto before = dump(dst);
  try {
    load_from_string(out.str(), dst);
    FAIL() << "checkpoint with missing param section loaded";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("section"), "param:head.b") << e.what();
  }
  EXPECT_EQ(dump(dst), before);
}

TEST(CkptFormat, CountMismatchRejected) {
  ParameterSet src;
  fill_params(src, 1.0f);
  ParameterSet dst;  // fewer params than the checkpoint carries
  dst.add("enc.w", Tensor::zeros(2, 3));
  EXPECT_THROW(load_from_string(save_to_string(src), dst), ContextError);
}

// ---------------------------------------------------------------------------
// legacy v0 compatibility

TEST(CkptFormat, V0StillReadable) {
  ParameterSet src;
  fill_params(src, 1.0f);
  ParameterSet dst;
  fill_params(dst, 9.0f);
  load_from_string(v0_bytes(src), dst);
  EXPECT_EQ(dump(src), dump(dst));
}

TEST(CkptFormat, V0TruncationNeverPartiallyOverwrites) {
  ParameterSet src;
  fill_params(src, 1.0f);
  const std::string bytes = v0_bytes(src);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ParameterSet dst;
    fill_params(dst, 9.0f);
    const auto before = dump(dst);
    EXPECT_THROW(load_from_string(bytes.substr(0, len), dst), Error)
        << "v0 truncation to " << len << " bytes loaded silently";
    EXPECT_EQ(dump(dst), before)
        << "v0 truncation to " << len << " bytes partially overwrote params";
  }
}

// ---------------------------------------------------------------------------
// Shared single-payload frame (MOSSPLN1 / MOSSSEG1 / MOSSMFT1 header)

constexpr char kTestMagic[8] = {'M', 'O', 'S', 'S', 'T', 'E', 'S', 'T'};

std::string frame_reason(std::string_view blob) {
  try {
    tensor::unframe(kTestMagic, 3, blob, ErrorContext{});
  } catch (const ContextError& e) {
    return e.context_value("reason");
  }
  return "accepted";
}

TEST(BlobFrame, RoundTripAndTypedRejections) {
  const std::string payload = "frame payload bytes";
  const std::string blob = tensor::frame(kTestMagic, 3, payload);
  ASSERT_EQ(blob.size(), tensor::kFrameHeaderBytes + payload.size());
  EXPECT_EQ(tensor::unframe(kTestMagic, 3, blob, ErrorContext{}), payload);

  const auto flipped = [&](std::size_t at) {
    std::string bad = blob;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    return bad;
  };
  EXPECT_EQ(frame_reason(blob.substr(0, 10)), "truncated");
  EXPECT_EQ(frame_reason(blob.substr(0, blob.size() - 1)), "truncated");
  EXPECT_EQ(frame_reason(flipped(0)), "bad_magic");
  EXPECT_EQ(frame_reason(flipped(8)), "bad_version");
  // Writers always store reserved = 0; any other value is corruption.
  EXPECT_EQ(frame_reason(flipped(12)), "bad_reserved");
  EXPECT_EQ(frame_reason(flipped(16)), "truncated");
  EXPECT_EQ(frame_reason(flipped(24)), "crc_mismatch");
  EXPECT_EQ(frame_reason(flipped(tensor::kFrameHeaderBytes + 2)),
            "crc_mismatch");
}

TEST(BlobFrame, ReadFileOfMissingPathFailsTyped) {
  ErrorContext ctx;
  ctx.add("what", "probe");
  try {
    tensor::read_file(::testing::TempDir() + "no_such_blob.bin", ctx);
    FAIL() << "missing file read";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("what"), "probe");
    EXPECT_NE(e.context_value("file").find("no_such_blob.bin"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// atomic writes under injected faults

TEST(CkptAtomic, RenameFaultLeavesOldFileIntact) {
  const std::string path = "/tmp/moss_ckpt_fault_rename.ckpt";
  remove_ckpt(path);
  FaultGuard guard;
  ParameterSet a;
  fill_params(a, 1.0f);
  tensor::save_parameters_file(path, a);

  ParameterSet b;
  fill_params(b, 5.0f);
  testing::arm_fault("serialize.rename");
  EXPECT_THROW(tensor::save_parameters_file(path, b), testing::InjectedFault);
  testing::disarm_all_faults();

  ParameterSet dst;
  fill_params(dst, 9.0f);
  tensor::load_parameters_file(path, dst);
  EXPECT_EQ(dump(dst), dump(a));
  remove_ckpt(path);
}

TEST(CkptAtomic, MidWriteFaultLeavesOldFileIntact) {
  const std::string path = "/tmp/moss_ckpt_fault_midwrite.ckpt";
  remove_ckpt(path);
  FaultGuard guard;
  ParameterSet a;
  fill_params(a, 1.0f);
  tensor::save_parameters_file(path, a);

  ParameterSet b;
  fill_params(b, 5.0f);
  testing::arm_fault("serialize.write_section", 2);  // die mid-stream
  EXPECT_THROW(tensor::save_parameters_file(path, b), testing::InjectedFault);
  testing::disarm_all_faults();

  ParameterSet dst;
  fill_params(dst, 9.0f);
  tensor::load_parameters_file(path, dst);
  EXPECT_EQ(dump(dst), dump(a));
  remove_ckpt(path);
}

TEST(CkptAtomic, ShortWriteDetectedOnSaveAndLoad) {
  ParameterSet src;
  fill_params(src, 1.0f);
  const std::string full = save_to_string(src);
  std::ostringstream sink;
  testing::ShortWriteBuf torn(sink.rdbuf(), full.size() / 2);
  std::ostream out(&torn);
  EXPECT_THROW(tensor::save_parameters(out, src), Error);
  // Whatever did land is a torn prefix — loading it must fail loudly too.
  ParameterSet dst;
  fill_params(dst, 9.0f);
  EXPECT_THROW(load_from_string(sink.str(), dst), Error);
}

// ---------------------------------------------------------------------------
// hardened training loop: non-finite losses

TEST(TrainerHardening, NanLabelSkipsStepKeepsParamsFinite) {
  WorkflowConfig cfg = tiny_config();
  MossWorkflow wf(cfg);
  wf.add_design({"alu", 1, 21, "ckf_nan1"});
  wf.add_design({"crc", 1, 22, "ckf_nan2"});
  core::MossModel& model = wf.model();
  std::vector<core::CircuitBatch> batches;
  for (std::size_t i = 0; i < wf.num_circuits(); ++i) {
    batches.push_back(
        core::build_batch(wf.circuit(i), wf.encoder(), cfg.model.features));
  }
  for (float& v : batches[0].toggle) {
    v = std::numeric_limits<float>::quiet_NaN();
  }
  PretrainConfig pc = cfg.pretrain;
  pc.epochs = 2;
  pc.max_bad_steps = 100;
  const PretrainReport rep = core::pretrain(model, batches, pc);
  EXPECT_GT(rep.bad_steps, 0u);
  for (const Tensor& t : model.params().tensors()) {
    for (const float v : t.data()) {
      ASSERT_TRUE(std::isfinite(v)) << "non-finite parameter after training";
    }
  }
}

TEST(TrainerHardening, TooManyBadStepsAbortsWithContext) {
  WorkflowConfig cfg = tiny_config();
  MossWorkflow wf(cfg);
  wf.add_design({"alu", 1, 23, "ckf_nan3"});
  wf.add_design({"crc", 1, 24, "ckf_nan4"});
  core::MossModel& model = wf.model();
  std::vector<core::CircuitBatch> batches;
  for (std::size_t i = 0; i < wf.num_circuits(); ++i) {
    batches.push_back(
        core::build_batch(wf.circuit(i), wf.encoder(), cfg.model.features));
  }
  for (auto& batch : batches) {
    for (float& v : batch.toggle) {
      v = std::numeric_limits<float>::quiet_NaN();
    }
  }
  PretrainConfig pc = cfg.pretrain;
  pc.max_bad_steps = 0;
  try {
    core::pretrain(model, batches, pc);
    FAIL() << "all-NaN training did not abort";
  } catch (const ContextError& e) {
    EXPECT_EQ(e.context_value("phase"), "pretrain") << e.what();
    EXPECT_FALSE(e.context_value("bad_steps").empty()) << e.what();
  }
}

// ---------------------------------------------------------------------------
// resume equivalence: train(N) == train(k) -> crash -> resume(N)

TEST(Resume, PretrainKilledMidEpochResumesBitIdentical) {
  const std::string base = "/tmp/moss_ckpt_fault_pretrain";
  remove_ckpt(base + ".pretrain.ckpt");
  remove_ckpt(base + ".align.ckpt");
  FaultGuard guard;
  const std::vector<data::DesignSpec> specs{{"alu", 1, 31, "ckf_r1"},
                                            {"crc", 1, 32, "ckf_r2"},
                                            {"arbiter", 1, 33, "ckf_r3"}};

  // Reference: uninterrupted run, no checkpointing at all.
  WorkflowConfig plain = tiny_config();
  MossWorkflow wfA(plain);
  for (const auto& s : specs) wfA.add_design(s);
  const PretrainReport repA = wfA.pretrain_model();
  const auto paramsA = dump(wfA.model().params());

  // Crashed run: dies on the 5th optimizer step = mid epoch 1, after the
  // epoch-0 snapshot landed (3 circuits -> 3 steps per epoch).
  WorkflowConfig ckpt_cfg = tiny_config();
  ckpt_cfg.pretrain.checkpoint_path = base + ".pretrain.ckpt";
  ckpt_cfg.pretrain.checkpoint_every = 1;
  ckpt_cfg.pretrain.resume = true;
  MossWorkflow wfB(ckpt_cfg);
  for (const auto& s : specs) wfB.add_design(s);
  testing::arm_fault("trainer.pretrain.step", 5);
  EXPECT_THROW(wfB.pretrain_model(), testing::InjectedFault);
  testing::disarm_all_faults();

  // Resumed run: fresh process state, picks up from the last snapshot.
  MossWorkflow wfC(ckpt_cfg);
  for (const auto& s : specs) wfC.add_design(s);
  const PretrainReport repC = wfC.pretrain_model();
  EXPECT_EQ(dump(wfC.model().params()), paramsA);
  EXPECT_EQ(repC.total, repA.total);
  EXPECT_EQ(repC.prob, repA.prob);
  EXPECT_EQ(repC.arrival, repA.arrival);
  remove_ckpt(base + ".pretrain.ckpt");
}

TEST(Resume, FitKilledMidAlignResumesBitIdentical) {
  const std::string base = "/tmp/moss_ckpt_fault_fit";
  remove_ckpt(base + ".pretrain.ckpt");
  remove_ckpt(base + ".align.ckpt");
  FaultGuard guard;
  const std::vector<data::DesignSpec> specs{{"alu", 1, 41, "ckf_f1"},
                                            {"crc", 1, 42, "ckf_f2"},
                                            {"arbiter", 1, 43, "ckf_f3"},
                                            {"gray_counter", 1, 44, "ckf_f4"}};

  WorkflowConfig plain = tiny_config();
  MossWorkflow wfA(plain);
  for (const auto& s : specs) wfA.add_design(s);
  wfA.fit();
  const auto paramsA = dump(wfA.model().params());

  // 4 circuits, batch_size 2 -> 2 align steps per epoch; the 3rd step is
  // mid epoch 1, after align's epoch-0 snapshot.
  WorkflowConfig ckpt_cfg = tiny_config();
  ckpt_cfg.enable_checkpointing(base);
  MossWorkflow wfB(ckpt_cfg);
  for (const auto& s : specs) wfB.add_design(s);
  testing::arm_fault("trainer.align.step", 3);
  EXPECT_THROW(wfB.fit(), testing::InjectedFault);
  testing::disarm_all_faults();

  // Resume skips pre-training entirely (the align snapshot embeds it).
  MossWorkflow wfC(ckpt_cfg);
  for (const auto& s : specs) wfC.add_design(s);
  wfC.fit();
  EXPECT_EQ(dump(wfC.model().params()), paramsA);

  // The best-epoch rotation produced a loadable, integrity-checked sibling.
  EXPECT_NO_THROW(tensor::read_checkpoint_file(base + ".align.ckpt.best"));
  remove_ckpt(base + ".pretrain.ckpt");
  remove_ckpt(base + ".align.ckpt");
}

TEST(Resume, CheckpointingItselfDoesNotPerturbTraining) {
  const std::string base = "/tmp/moss_ckpt_fault_noperturb";
  remove_ckpt(base + ".pretrain.ckpt");
  const std::vector<data::DesignSpec> specs{{"alu", 1, 51, "ckf_n1"},
                                            {"crc", 1, 52, "ckf_n2"}};
  WorkflowConfig plain = tiny_config();
  MossWorkflow wfA(plain);
  for (const auto& s : specs) wfA.add_design(s);
  wfA.pretrain_model();

  WorkflowConfig ckpt_cfg = tiny_config();
  ckpt_cfg.pretrain.checkpoint_path = base + ".pretrain.ckpt";
  ckpt_cfg.pretrain.checkpoint_every = 1;
  MossWorkflow wfB(ckpt_cfg);
  for (const auto& s : specs) wfB.add_design(s);
  wfB.pretrain_model();
  EXPECT_EQ(dump(wfA.model().params()), dump(wfB.model().params()));
  remove_ckpt(base + ".pretrain.ckpt");
}

// ---------------------------------------------------------------------------
// environment-armed faults (exercised by the CI fault-injection job, which
// runs this test with MOSS_FAULT=trainer.pretrain.step:<n> set)

TEST(FaultEnv, PretrainKilledByEnvFaultThenResumes) {
  const char* env = std::getenv("MOSS_FAULT");
  if (env == nullptr ||
      std::string(env).find("trainer.pretrain.step") == std::string::npos) {
    GTEST_SKIP() << "MOSS_FAULT not set for trainer.pretrain.step";
  }
  const std::string base = "/tmp/moss_ckpt_fault_env";
  remove_ckpt(base + ".pretrain.ckpt");
  WorkflowConfig cfg = tiny_config();
  cfg.pretrain.checkpoint_path = base + ".pretrain.ckpt";
  cfg.pretrain.checkpoint_every = 1;
  cfg.pretrain.resume = true;
  const std::vector<data::DesignSpec> specs{{"alu", 1, 61, "ckf_e1"},
                                            {"crc", 1, 62, "ckf_e2"}};
  MossWorkflow wfA(cfg);
  for (const auto& s : specs) wfA.add_design(s);
  EXPECT_THROW(wfA.pretrain_model(), testing::InjectedFault);

  // The env fault fires exactly once, so the resumed run completes.
  MossWorkflow wfB(cfg);
  for (const auto& s : specs) wfB.add_design(s);
  const PretrainReport rep = wfB.pretrain_model();
  EXPECT_EQ(rep.total.size(), static_cast<std::size_t>(cfg.pretrain.epochs));
  remove_ckpt(base + ".pretrain.ckpt");
}

}  // namespace
}  // namespace moss

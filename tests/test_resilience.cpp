// Fault-tolerance suite (`resilience` ctest label): the error taxonomy,
// input hardening (kv reals, mesh exchange files), checkpoint serialization
// and its corruption detection, checkpoint/restore parity across every
// registered backend (bitwise same-backend, roundoff-exact cross-backend),
// deterministic fault injection (nan / throw / stall+watchdog), supervised
// recovery policies, recovery events in the RunReport JSON, and the
// docs/robustness.md doc-sync pins.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/kv.hpp"
#include "conformance_utils.hpp"
#include "core/executor.hpp"
#include "core/simulation.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh_io.hpp"
#include "perf/run_report.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/error.hpp"
#include "resilience/fault.hpp"
#include "resilience/health_guard.hpp"
#include "resilience/recovery.hpp"
#include "resilience/supervisor.hpp"
#include "scenarios/scenario.hpp"

namespace ltswave {
namespace {

using conformance::rel_l2;

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

TEST(ErrorTaxonomy, EveryTypeIsAnErrorAndACheckFailure) {
  // The taxonomy refines the existing failure channel: pre-existing
  // catch (const CheckFailure&) sites must keep seeing every resilience
  // throw.
  EXPECT_THROW(LTS_RAISE(resilience::NumericalBlowup, "x"), resilience::NumericalBlowup);
  EXPECT_THROW(LTS_RAISE(resilience::NumericalBlowup, "x"), resilience::Error);
  EXPECT_THROW(LTS_RAISE(resilience::WorkerStall, "x"), resilience::Error);
  EXPECT_THROW(LTS_RAISE(resilience::CorruptInput, "x"), resilience::Error);
  EXPECT_THROW(LTS_RAISE(resilience::CheckpointMismatch, "x"), resilience::Error);
  EXPECT_THROW(LTS_RAISE(resilience::Error, "x"), CheckFailure);
  try {
    LTS_RAISE(resilience::NumericalBlowup, "dof " << 42 << " went " << 1.5);
  } catch (const resilience::NumericalBlowup& e) {
    EXPECT_STREQ(e.what(), "dof 42 went 1.5");
  }
}

TEST(ErrorTaxonomy, FaultKindRoundTrip) {
  using Kind = resilience::FaultPlan::Kind;
  for (const Kind k : {Kind::None, Kind::Nan, Kind::Stall, Kind::Throw})
    EXPECT_EQ(resilience::parse_fault_kind(resilience::to_string(k)), k);
  EXPECT_THROW((void)resilience::parse_fault_kind("segfault"), CheckFailure);
}

TEST(ErrorTaxonomy, OnBlowupRoundTrip) {
  using B = resilience::RecoveryPolicy::OnBlowup;
  for (const B b : {B::HalveDt, B::FallbackExecutor, B::Abort})
    EXPECT_EQ(resilience::parse_on_blowup(resilience::to_string(b)), b);
  EXPECT_THROW((void)resilience::parse_on_blowup("pray"), CheckFailure);
}

TEST(ErrorTaxonomy, FaultPickIsDeterministicAndInRange) {
  for (std::size_t n : {1u, 7u, 1000u}) {
    const std::size_t a = resilience::fault_pick(0x5eed, n);
    EXPECT_EQ(a, resilience::fault_pick(0x5eed, n));
    EXPECT_LT(a, n);
  }
  EXPECT_NE(resilience::fault_pick(1, 1000), resilience::fault_pick(2, 1000));
}

// ---------------------------------------------------------------------------
// Input hardening: kv reals and mesh exchange files
// ---------------------------------------------------------------------------

TEST(InputHardening, KvRejectsNonFiniteReals) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "Infinity"})
    EXPECT_THROW((void)kv::parse_real("courant", bad), CheckFailure) << bad;
  EXPECT_EQ(kv::parse_real("courant", "0.25"), real_t(0.25));
  // The config surfaces go through the same parser, so a NaN cannot enter
  // through the CLI either.
  EXPECT_THROW((void)core::parse_simulation_config("courant=nan"), CheckFailure);
}

class CorruptMesh : public ::testing::Test {
protected:
  void SetUp() override {
    good_ = tmp_path("ltswave_resilience_good.mesh");
    mesh::save_mesh(good_, mesh::make_uniform_box(2, 2, 2));
    std::ifstream in(good_);
    std::ostringstream ss;
    ss << in.rdbuf();
    text_ = ss.str();
  }

  /// Writes `contents` to a fixture file and returns its path.
  std::string write_fixture(const std::string& name, const std::string& contents) {
    const std::string path = tmp_path(name);
    std::ofstream out(path, std::ios::trunc);
    out << contents;
    return path;
  }

  std::string good_;
  std::string text_; ///< the good file's full text, to corrupt from
};

TEST_F(CorruptMesh, GoodFileRoundTrips) {
  const auto m = mesh::load_mesh(good_);
  EXPECT_EQ(m.num_elems(), 8);
  EXPECT_EQ(m.num_nodes(), 27);
}

TEST_F(CorruptMesh, TruncatedFileThrowsCorruptInputWithContext) {
  const auto path = write_fixture("ltswave_trunc.mesh", text_.substr(0, text_.size() / 2));
  try {
    (void)mesh::load_mesh(path);
    FAIL() << "expected CorruptInput";
  } catch (const resilience::CorruptInput& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find(":"), std::string::npos) << "wants path:line context: " << msg;
  }
}

TEST_F(CorruptMesh, BadMagicThrowsCorruptInput) {
  const auto path = write_fixture("ltswave_magic.mesh", "not-a-mesh 1\n" + text_);
  EXPECT_THROW((void)mesh::load_mesh(path), resilience::CorruptInput);
}

TEST_F(CorruptMesh, NonNumericTokenThrowsCorruptInput) {
  auto broken = text_;
  broken.replace(broken.find("0 "), 1, "x");
  EXPECT_THROW((void)mesh::load_mesh(write_fixture("ltswave_token.mesh", broken)),
               resilience::CorruptInput);
}

TEST_F(CorruptMesh, OutOfRangeConnectivityThrowsCorruptInput) {
  // Point a corner at node 99999 (the box has 27 nodes). The connectivity
  // block starts after the 27 coordinate lines; corrupt its first token.
  std::istringstream in(text_);
  std::ostringstream out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (lineno == 3 + 27) { // magic + counts + 27 nodes, first connectivity line
      out << "99999" << line.substr(line.find(' ')) << '\n';
    } else {
      out << line << '\n';
    }
  }
  EXPECT_THROW((void)mesh::load_mesh(write_fixture("ltswave_conn.mesh", out.str())),
               resilience::CorruptInput);
}

TEST_F(CorruptMesh, MissingFileThrowsCorruptInput) {
  EXPECT_THROW((void)mesh::load_mesh(tmp_path("ltswave_nonexistent.mesh")),
               resilience::CorruptInput);
}

// ---------------------------------------------------------------------------
// Checkpoint serialization
// ---------------------------------------------------------------------------

resilience::Checkpoint small_checkpoint() {
  resilience::Checkpoint ck;
  ck.executor = "serial-lts";
  ck.config = "order=2 courant=0.1";
  ck.state.u = {1.0, -2.5, 3.25};
  ck.state.v_half = {0.5, 0.25, -0.125};
  ck.state.time = 0.75;
  ck.state.dt = 0.0625;
  ck.state.cycles = 12;
  ck.state.element_applies = 1234;
  ck.state.blocks_applied = 56;
  ck.state.applies_per_level = {8, 4};
  ck.state.frozen_forces = {{0.1, 0.2, 0.3}, {}};
  ck.state.cumulative = {0.1, 0.2, 0.3};
  // Non-default integrator fields so the round trip exercises the v2 payload.
  ck.state.integrator = "leapfrog-stab";
  ck.state.integrator_aux = {0.5, -0.25};
  ck.traces = {{{0.0625, 0.125}, {1e-3, 2e-3}}, {{}, {}}};
  return ck;
}

TEST(Checkpoint, SerializeDeserializeRoundTrip) {
  const auto ck = small_checkpoint();
  const auto bytes = resilience::serialize(ck);
  EXPECT_EQ(resilience::deserialize(bytes.data(), bytes.size()), ck);
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const auto ck = small_checkpoint();
  const auto path = tmp_path("ltswave_ckpt_roundtrip.ckpt");
  resilience::save(ck, path);
  EXPECT_EQ(resilience::load(path), ck);
  // Atomic save: no .tmp file survives a successful save.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Checkpoint, EveryPayloadBitFlipIsDetected) {
  auto bytes = resilience::serialize(small_checkpoint());
  // Flip one byte in every 7th position of the payload (past the 30-byte
  // header): the XXH64 checksum, or a count check that fires before it, must
  // catch each one.
  for (std::size_t i = 30; i < bytes.size(); i += 7) {
    auto corrupted = bytes;
    corrupted[i] ^= 0x40;
    EXPECT_THROW((void)resilience::deserialize(corrupted.data(), corrupted.size()),
                 resilience::CorruptInput)
        << "byte " << i;
  }
}

TEST(Checkpoint, HeaderValidationNamesTheFailure) {
  const auto bytes = resilience::serialize(small_checkpoint());

  auto expect_corrupt = [](std::vector<std::uint8_t> b, const char* needle) {
    try {
      (void)resilience::deserialize(b.data(), b.size());
      FAIL() << "expected CorruptInput for " << needle;
    } catch (const resilience::CorruptInput& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };

  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  expect_corrupt(bad_magic, "magic");

  auto bad_version = bytes;
  bad_version[8] = 0xEE;
  expect_corrupt(bad_version, "version");

  auto truncated = bytes;
  truncated.resize(truncated.size() - 1);
  expect_corrupt(truncated, "size mismatch");

  expect_corrupt(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 10), "header");
}

TEST(Checkpoint, ForeignArchTagThrowsCheckpointMismatch) {
  // The two arch-tag bytes (offsets 12/13: byte order, sizeof(real_t)) guard
  // against restoring a checkpoint written by an incompatible machine or
  // build. The payload checksum of such a file is *valid*, so the refusal
  // must come from the tag itself — and as CheckpointMismatch (a wrong-world
  // checkpoint), not CorruptInput (a damaged one).
  const auto bytes = resilience::serialize(small_checkpoint());

  auto expect_mismatch = [](std::vector<std::uint8_t> b, const char* needle) {
    try {
      (void)resilience::deserialize(b.data(), b.size());
      FAIL() << "expected CheckpointMismatch for " << needle;
    } catch (const resilience::CheckpointMismatch& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };

  auto foreign_order = bytes;
  foreign_order[12] = foreign_order[12] == 0x01 ? 0x02 : 0x01;
  expect_mismatch(foreign_order, "endian");

  auto foreign_width = bytes;
  foreign_width[13] = foreign_width[13] == 4 ? 8 : 4;
  expect_mismatch(foreign_width, "sizeof(real_t)");

  // Through load() the type survives and the path is named.
  const auto path = tmp_path("ltswave_ckpt_foreign.ckpt");
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(foreign_order.data()),
             static_cast<std::streamsize>(foreign_order.size()));
  try {
    (void)resilience::load(path);
    FAIL() << "expected CheckpointMismatch";
  } catch (const resilience::CheckpointMismatch& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, LoadNamesThePathOnFailure) {
  const auto path = tmp_path("ltswave_ckpt_garbage.ckpt");
  std::ofstream(path, std::ios::trunc) << "garbage";
  try {
    (void)resilience::load(path);
    FAIL() << "expected CorruptInput";
  } catch (const resilience::CorruptInput& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(Checksum, Xxh64MatchesPublishedVectors) {
  EXPECT_EQ(resilience::xxh64("", 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(resilience::xxh64("a", 1), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(resilience::xxh64("abc", 3), 0x44bc2cf5ad770999ull);
  // 39 bytes: one full 32-byte stripe plus a 4-byte and a 3-byte tail.
  const std::string spam = "Nobody inspects the spammish repetition";
  EXPECT_EQ(resilience::xxh64(spam.data(), spam.size()), 0xfbcea83c8a378bf1ull);
  // 43 bytes: one stripe, an 8-byte tail word and three single bytes.
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(resilience::xxh64(fox.data(), fox.size()), 0x0b242d361fda71bcull);
}

TEST(Checksum, StreamingDigestMatchesOneShotAtEverySplit) {
  // Several 32-byte stripes; the splits leave every partial-stripe length
  // buffered between two update() calls.
  std::vector<std::uint8_t> data(203);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  const std::uint64_t want = resilience::xxh64(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    resilience::Xxh64 h;
    h.update(data.data(), split);
    h.update(data.data() + split, data.size() - split);
    EXPECT_EQ(h.digest(), want) << "split at " << split;
  }
  for (std::size_t chunk = 1; chunk <= 40; ++chunk) {
    resilience::Xxh64 h;
    for (std::size_t off = 0; off < data.size(); off += chunk)
      h.update(data.data() + off, std::min(chunk, data.size() - off));
    EXPECT_EQ(h.digest(), want) << "chunks of " << chunk;
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, SaveWritesExactlyTheSerializedImage) {
  const auto ck = small_checkpoint();
  const auto path = tmp_path("ltswave_ckpt_image.ckpt");
  resilience::save(ck, path);
  EXPECT_EQ(read_file(path), resilience::serialize(ck));
}

TEST(Checkpoint, Version2FilesAreRefused) {
  // A v2 file has the same layout under an FNV-1a checksum; the version word
  // alone must refuse it, before any checksum is computed.
  auto v2 = resilience::serialize(small_checkpoint());
  const std::uint32_t version = 2;
  std::memcpy(v2.data() + 8, &version, sizeof version);
  const char* needle = "unsupported checkpoint version 2";
  try {
    (void)resilience::deserialize(v2.data(), v2.size());
    FAIL() << "expected CorruptInput";
  } catch (const resilience::CorruptInput& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
  const auto path = tmp_path("ltswave_ckpt_v2.ckpt");
  write_file(path, v2);
  try {
    (void)resilience::load(path);
    FAIL() << "expected CorruptInput";
  } catch (const resilience::CorruptInput& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, LoadOfEveryTruncationThrowsOnlyCorruptInput) {
  const auto bytes = resilience::serialize(small_checkpoint());
  const auto path = tmp_path("ltswave_ckpt_truncated.ckpt");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(path, {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)});
    EXPECT_THROW((void)resilience::load(path), resilience::CorruptInput) << "length " << len;
  }
}

/// The file offset of every u64 count in small_checkpoint()'s image, walked
/// field by field in format order.
std::vector<std::pair<std::string, std::size_t>> small_checkpoint_counts() {
  const auto ck = small_checkpoint();
  std::vector<std::pair<std::string, std::size_t>> counts;
  std::size_t off = 30;
  auto array = [&](const std::string& name, std::size_t n, std::size_t item_bytes) {
    counts.emplace_back(name, off);
    off += 8 + n * item_bytes;
  };
  auto list = [&](const std::string& name) {
    counts.emplace_back(name, off);
    off += 8;
  };
  const auto& s = ck.state;
  array("executor", ck.executor.size(), 1);
  array("config", ck.config.size(), 1);
  array("u", s.u.size(), sizeof(real_t));
  array("v_half", s.v_half.size(), sizeof(real_t));
  off += 2 * sizeof(real_t) + 3 * 8; // time, dt, cycles, element_applies, blocks_applied
  array("applies_per_level", s.applies_per_level.size(), 8);
  list("frozen_forces");
  for (std::size_t k = 0; k < s.frozen_forces.size(); ++k)
    array("frozen_forces[" + std::to_string(k) + "]", s.frozen_forces[k].size(), sizeof(real_t));
  array("cumulative", s.cumulative.size(), sizeof(real_t));
  array("integrator", s.integrator.size(), 1);
  array("integrator_aux", s.integrator_aux.size(), sizeof(real_t));
  list("traces");
  for (std::size_t i = 0; i < ck.traces.size(); ++i) {
    const std::string t = "traces[" + std::to_string(i) + "]";
    array(t + ".times", ck.traces[i].times.size(), sizeof(real_t));
    array(t + ".values", ck.traces[i].values.size(), sizeof(real_t));
  }
  EXPECT_EQ(off, resilience::serialize(ck).size()) << "the walk must cover the whole image";
  return counts;
}

TEST(Checkpoint, HostileCountsThrowCorruptInput) {
  // Every count is checked against the bytes left before anything is
  // allocated. The images are re-signed, so the count check alone (not the
  // checksum) must refuse them — as CorruptInput, never std::length_error or
  // std::bad_alloc.
  const auto bytes = resilience::serialize(small_checkpoint());
  const auto path = tmp_path("ltswave_ckpt_hostile.ckpt");
  for (const auto& [field, off] : small_checkpoint_counts()) {
    for (const std::uint64_t hostile : {std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
      auto b = bytes;
      std::memcpy(b.data() + off, &hostile, sizeof hostile);
      const std::uint64_t checksum = resilience::xxh64(b.data() + 30, b.size() - 30);
      std::memcpy(b.data() + 22, &checksum, sizeof checksum);
      try {
        (void)resilience::deserialize(b.data(), b.size());
        ADD_FAILURE() << field << ": expected CorruptInput";
      } catch (const resilience::CorruptInput& e) {
        EXPECT_NE(std::string(e.what()).find("count"), std::string::npos)
            << field << ": " << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << field << ": escaped as " << e.what();
      }
      write_file(path, b);
      try {
        (void)resilience::load(path);
        ADD_FAILURE() << field << ": expected CorruptInput from load";
      } catch (const resilience::CorruptInput& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << field << ": " << msg;
        EXPECT_NE(msg.find("count"), std::string::npos) << field << ": " << msg;
      } catch (const std::exception& e) {
        ADD_FAILURE() << field << ": load escaped as " << e.what();
      }
    }
  }
}

TEST(Checkpoint, FailedSaveIsTypedAndLeavesNoTempFile) {
  const auto ck = small_checkpoint();
  // Saving onto an existing directory writes the temp file, then fails the
  // rename: the error is a resilience::Error naming the path, and the temp
  // file is gone.
  const auto dir = tmp_path("ltswave_ckpt_onto_a_dir");
  std::filesystem::create_directories(dir);
  try {
    resilience::save(ck, dir);
    FAIL() << "expected resilience::Error";
  } catch (const resilience::Error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
  }
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  // A missing parent directory fails at open.
  const auto orphan = tmp_path("ltswave_no_such_dir/ck.ckpt");
  EXPECT_THROW(resilience::save(ck, orphan), resilience::Error);
  EXPECT_FALSE(std::filesystem::exists(orphan + ".tmp"));
}

// ---------------------------------------------------------------------------
// Checkpoint/restore parity across backends
// ---------------------------------------------------------------------------

scenarios::ScenarioSpec strip_spec(const std::string& executor) {
  auto spec = scenarios::get("strip");
  spec.executor = executor;
  if (executor.rfind("threaded/", 0) == 0) spec.num_ranks = 2;
  spec.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
  return spec;
}

TEST(CheckpointRestore, SameBackendRestoreIsBitwise) {
  for (const auto& name : core::ExecutorFactory::instance().names()) {
    const auto spec = strip_spec(name);

    auto ref = spec.make_simulation();
    ref->run(6 * ref->dt());

    auto half = spec.make_simulation();
    half->run(3 * half->dt());
    const auto ck = half->checkpoint();

    auto resumed = spec.make_simulation();
    resumed->restore(ck);
    EXPECT_EQ(resumed->cycles(), 3) << name;
    resumed->run(3 * resumed->dt());

    ASSERT_EQ(resumed->u().size(), ref->u().size()) << name;
    // Bitwise, not approximately: the restore imports the frozen-force
    // accumulators exactly, so the resumed FP instruction stream is identical
    // to the uninterrupted one.
    EXPECT_EQ(0, std::memcmp(resumed->u().data(), ref->u().data(),
                             ref->u().size() * sizeof(real_t)))
        << name;
    EXPECT_EQ(resumed->cycles(), ref->cycles()) << name;
    EXPECT_EQ(resumed->element_applies(), ref->element_applies()) << name;
    ASSERT_EQ(resumed->receivers().size(), ref->receivers().size());
    for (std::size_t i = 0; i < ref->receivers().size(); ++i) {
      EXPECT_EQ(resumed->receivers()[i].times(), ref->receivers()[i].times()) << name;
      EXPECT_EQ(resumed->receivers()[i].values(), ref->receivers()[i].values()) << name;
    }
  }
}

TEST(CheckpointRestore, CrossBackendRestoreMatchesToRoundoff) {
  // A checkpoint written by any LTS backend restores onto any other LTS
  // backend (same coarse dt); the dropped accumulators are recomputed, so the
  // resumed trajectory agrees to roundoff with the target backend's own
  // uninterrupted run.
  auto& factory = core::ExecutorFactory::instance();
  std::vector<std::string> lts_backends;
  for (const auto& name : factory.names())
    if (factory.uses_lts_levels(name)) lts_backends.push_back(name);

  for (const auto& from : lts_backends) {
    auto writer = strip_spec(from).make_simulation();
    writer->run(3 * writer->dt());
    const auto ck = writer->checkpoint();

    for (const auto& to : lts_backends) {
      if (to == from) continue;
      const auto to_spec = strip_spec(to);
      auto ref = to_spec.make_simulation();
      ref->run(6 * ref->dt());

      auto resumed = to_spec.make_simulation();
      resumed->restore(ck);
      EXPECT_NEAR(resumed->time(), 3 * resumed->dt(), 1e-14) << from << " -> " << to;
      resumed->run(3 * resumed->dt());

      EXPECT_LT(rel_l2(resumed->u(), ref->u()), 1e-12) << from << " -> " << to;
    }
  }
}

TEST(CheckpointRestore, MismatchedShapeThrowsCheckpointMismatch) {
  const auto spec = strip_spec("serial-lts");
  auto sim = spec.make_simulation();
  auto ck = sim->checkpoint();
  ck.state.u.resize(ck.state.u.size() + 1);
  EXPECT_THROW(sim->restore(ck), resilience::CheckpointMismatch);

  // Wrong receiver count (facade not rebuilt from the same scenario).
  auto ck2 = sim->checkpoint();
  ck2.traces.pop_back();
  EXPECT_THROW(sim->restore(ck2), resilience::CheckpointMismatch);
}

TEST(CheckpointRestore, IntegratorMismatchThrowsCheckpointMismatch) {
  // The staggered (u, v_half) pair means something different under each
  // substep rule, so a cross-integrator restore must be refused — in both
  // directions.
  auto newmark_spec = strip_spec("serial-lts");
  auto stab_spec = newmark_spec;
  stab_spec.integrator = "leapfrog-stab";

  auto newmark_sim = newmark_spec.make_simulation();
  newmark_sim->run(2 * newmark_sim->dt());
  const auto newmark_ck = newmark_sim->checkpoint();
  EXPECT_EQ(newmark_ck.state.integrator, "newmark");

  auto stab_sim = stab_spec.make_simulation();
  stab_sim->run(2 * stab_sim->dt());
  const auto stab_ck = stab_sim->checkpoint();
  EXPECT_EQ(stab_ck.state.integrator, "leapfrog-stab");

  EXPECT_THROW(stab_sim->restore(newmark_ck), resilience::CheckpointMismatch);
  EXPECT_THROW(newmark_sim->restore(stab_ck), resilience::CheckpointMismatch);
  EXPECT_NO_THROW(stab_sim->restore(stab_ck));
  EXPECT_NO_THROW(newmark_sim->restore(newmark_ck));
}

TEST(CheckpointRestore, LeapfrogStabSameBackendRestoreIsBitwise) {
  // The bitwise-resume guarantee holds per integrator, not just for the
  // default scheme.
  auto spec = strip_spec("serial-lts");
  spec.integrator = "leapfrog-stab";

  auto ref = spec.make_simulation();
  ref->run(6 * ref->dt());

  auto half = spec.make_simulation();
  half->run(3 * half->dt());
  const auto ck = half->checkpoint();

  auto resumed = spec.make_simulation();
  resumed->restore(ck);
  resumed->run(3 * resumed->dt());
  ASSERT_EQ(resumed->u().size(), ref->u().size());
  EXPECT_EQ(0, std::memcmp(resumed->u().data(), ref->u().data(),
                           ref->u().size() * sizeof(real_t)));
}

TEST(CheckpointRestore, DtChangeNeedsExplicitOptIn) {
  const auto spec = strip_spec("serial-lts");
  auto sim = spec.make_simulation();
  sim->run(2 * sim->dt());
  const auto ck = sim->checkpoint();

  auto halved = spec;
  halved.courant /= 2;
  auto target = halved.make_simulation();
  EXPECT_THROW(target->restore(ck), resilience::CheckpointMismatch);
  target->restore(ck, /*allow_dt_change=*/true);
  EXPECT_NEAR(target->time(), ck.state.time, 1e-14);
}

// ---------------------------------------------------------------------------
// Fault injection and health guards
// ---------------------------------------------------------------------------

TEST(FaultInjection, NanTripsHealthGuardOnEveryBackend) {
  for (const auto& name : core::ExecutorFactory::instance().names()) {
    auto spec = strip_spec(name);
    spec.fault.kind = resilience::FaultPlan::Kind::Nan;
    spec.fault.cycle = 2;
    spec.health_every = 1;
    auto sim = spec.make_simulation();
    EXPECT_THROW(sim->run(6 * sim->dt()), resilience::NumericalBlowup) << name;
    // The injection itself is observable in the report, independent of the
    // guard that caught its consequence.
    bool injected = false;
    for (const auto& ev : sim->run_report().events) injected |= ev.kind == "fault-injected";
    EXPECT_TRUE(injected) << name;
  }
}

TEST(FaultInjection, GuardOffLetsNanPropagateSilently) {
  auto spec = strip_spec("serial-lts");
  spec.fault.kind = resilience::FaultPlan::Kind::Nan;
  spec.fault.cycle = 1;
  spec.health_every = -1; // explicit opt-out
  auto sim = spec.make_simulation();
  EXPECT_NO_THROW(sim->run(4 * sim->dt()));
  bool has_nan = false;
  for (const real_t x : sim->u()) has_nan |= std::isnan(x);
  EXPECT_TRUE(has_nan);
}

TEST(FaultInjection, ThrowFaultRaisesResilienceErrorAtTheAddressedCycle) {
  for (const char* name : {"serial-lts", "threaded/level-aware"}) {
    auto spec = strip_spec(name);
    spec.fault.kind = resilience::FaultPlan::Kind::Throw;
    spec.fault.cycle = 3;
    auto sim = spec.make_simulation();
    try {
      sim->run(8 * sim->dt());
      FAIL() << "expected resilience::Error from " << name;
    } catch (const resilience::Error& e) {
      EXPECT_NE(std::string(e.what()).find("fault.kind=throw"), std::string::npos);
      // The three cycles before the addressed one completed.
      EXPECT_EQ(sim->cycles(), 3) << name;
    }
  }
}

TEST(FaultInjection, WatchdogTurnsStallIntoWorkerStall) {
  auto spec = strip_spec("threaded/level-aware");
  spec.fault.kind = resilience::FaultPlan::Kind::Stall;
  spec.fault.cycle = 1;
  spec.fault.stall_ms = 1500;
  spec.scheduler.watchdog_seconds = 0.2;
  auto sim = spec.make_simulation();
  try {
    sim->run(4 * sim->dt());
    FAIL() << "expected WorkerStall";
  } catch (const resilience::WorkerStall& e) {
    EXPECT_NE(std::string(e.what()).find("no progress"), std::string::npos) << e.what();
  }
}

TEST(HealthGuard, EnergyBlowupTripsWithoutNan) {
  // Finite but exploding state: scale u and v by 1e4 between checks — the
  // finiteness scan passes, the consecutive-energy check must trip.
  const auto spec = strip_spec("serial-lts");
  auto sim = spec.make_simulation();
  sim->run(sim->dt());
  resilience::HealthGuard guard(sim->space());
  guard.check(sim->executor()); // baseline energy

  std::vector<real_t> u = sim->u();
  std::vector<real_t> v(sim->executor().v_half().begin(), sim->executor().v_half().end());
  for (auto& x : u) x *= 1e4;
  for (auto& x : v) x *= 1e4;
  sim->set_state(u, v);
  EXPECT_THROW(guard.check(sim->executor()), resilience::NumericalBlowup);

  // reset() forgets the failed timeline: the same state is a fresh baseline.
  guard.reset();
  EXPECT_NO_THROW(guard.check(sim->executor()));
}

// ---------------------------------------------------------------------------
// Supervised recovery
// ---------------------------------------------------------------------------

scenarios::ScenarioSpec supervised_nan_spec() {
  auto spec = strip_spec("serial-lts");
  spec.fault.kind = resilience::FaultPlan::Kind::Nan;
  spec.fault.cycle = 3;
  spec.health_every = 1;
  spec.recovery.checkpoint_every = 2;
  spec.recovery.max_retries = 2;
  spec.recovery.backoff_ms = 1;
  return spec;
}

TEST(Supervisor, NanAtCycleKRollsBackAndCompletes) {
  auto spec = supervised_nan_spec();
  spec.recovery.on_blowup = resilience::RecoveryPolicy::OnBlowup::HalveDt;
  const auto target = 8 * spec.make_simulation()->dt();

  auto result = resilience::Supervisor(spec).run();
  EXPECT_EQ(result.retries_used, 1);
  EXPECT_TRUE(result.recovered());
  EXPECT_NEAR(result.end_time, target, 1e-12);

  // The whole story is in the events, in order: injection, detection,
  // recovery.
  std::vector<std::string> kinds;
  for (const auto& ev : result.report.events) kinds.push_back(ev.kind);
  auto index_of = [&](const std::string& k) {
    for (std::size_t i = 0; i < kinds.size(); ++i)
      if (kinds[i] == k) return static_cast<std::ptrdiff_t>(i);
    return std::ptrdiff_t{-1};
  };
  ASSERT_GE(index_of("fault-injected"), 0);
  ASSERT_GE(index_of("blowup-detected"), 0);
  ASSERT_GE(index_of("recovery"), 0);
  EXPECT_LT(index_of("fault-injected"), index_of("blowup-detected"));
  EXPECT_LT(index_of("blowup-detected"), index_of("recovery"));

  // And the events survive the JSON round trip — observable in the report
  // file, not just in-process.
  const auto parsed = perf::run_report_from_json(perf::to_json(result.report));
  EXPECT_EQ(parsed.events, result.report.events);
}

TEST(Supervisor, FallbackExecutorDegradesToSerial) {
  auto spec = strip_spec("threaded/level-aware+steal");
  spec.fault.kind = resilience::FaultPlan::Kind::Throw;
  spec.fault.cycle = 3;
  spec.recovery.checkpoint_every = 2;
  spec.recovery.max_retries = 1;
  spec.recovery.backoff_ms = 1;
  spec.recovery.on_blowup = resilience::RecoveryPolicy::OnBlowup::FallbackExecutor;
  const auto target = 8 * spec.make_simulation()->dt();

  auto result = resilience::Supervisor(spec).run();
  EXPECT_EQ(result.final_executor, "serial-lts");
  EXPECT_EQ(result.retries_used, 1);
  EXPECT_NEAR(result.end_time, target, 1e-12);

  // The degraded run's physics agrees with a clean serial run to roundoff
  // (rollback discarded nothing: failure hit after the cycle-2 checkpoint,
  // resumed from it on the fallback).
  auto clean = strip_spec("serial-lts").make_simulation();
  clean->run(8 * clean->dt());
  EXPECT_LT(rel_l2(result.u, clean->u()), 1e-12);
}

TEST(Supervisor, AbortPolicyRethrowsTheRootCause) {
  auto spec = supervised_nan_spec();
  spec.recovery.on_blowup = resilience::RecoveryPolicy::OnBlowup::Abort;
  EXPECT_THROW((void)resilience::Supervisor(spec).run(), resilience::NumericalBlowup);
}

TEST(Supervisor, RetriesExhaustedRethrows) {
  // A fault that re-fires every attempt (the spec's plan is cleared on
  // retry, but a *real* recurring failure is modeled by max_retries=0).
  auto spec = supervised_nan_spec();
  spec.recovery.on_blowup = resilience::RecoveryPolicy::OnBlowup::HalveDt;
  spec.recovery.max_retries = 0;
  EXPECT_THROW((void)resilience::Supervisor(spec).run(), resilience::NumericalBlowup);
}

TEST(Supervisor, StatsTallyRunsAcrossOutcomes) {
  // The mutex-guarded cross-run bookkeeping: one recovered run, one that
  // rethrows. Completion only counts runs that finished; retries accumulate;
  // the last failure message survives the successful recovery in between.
  auto spec = supervised_nan_spec();
  spec.recovery.on_blowup = resilience::RecoveryPolicy::OnBlowup::HalveDt;
  resilience::Supervisor sup(spec);
  EXPECT_EQ(sup.stats().runs_started, 0);

  (void)sup.run(); // injected NaN at cycle 3, recovers via halve_dt
  auto s = sup.stats();
  EXPECT_EQ(s.runs_started, 1);
  EXPECT_EQ(s.runs_completed, 1);
  EXPECT_EQ(s.retries_total, 1);
  EXPECT_NE(s.last_failure.find("non-finite"), std::string::npos) << s.last_failure;

  auto abort_spec = supervised_nan_spec();
  abort_spec.recovery.on_blowup = resilience::RecoveryPolicy::OnBlowup::Abort;
  resilience::Supervisor aborting(abort_spec);
  EXPECT_THROW((void)aborting.run(), resilience::NumericalBlowup);
  s = aborting.stats();
  EXPECT_EQ(s.runs_started, 1);
  EXPECT_EQ(s.runs_completed, 0);
  EXPECT_FALSE(s.last_failure.empty());
}

// ---------------------------------------------------------------------------
// Config plumbing and doc sync
// ---------------------------------------------------------------------------

TEST(ResilienceConfig, FaultAndRecoveryKeysRoundTrip) {
  core::SimulationConfig cfg;
  // The legacy config string is pinned: resilience keys must not leak into
  // configs that never set them (reports and docs quote this string).
  EXPECT_EQ(core::to_string(cfg).find("fault"), std::string::npos);
  EXPECT_EQ(core::to_string(cfg).find("health-every"), std::string::npos);
  EXPECT_EQ(core::to_string(cfg).find("watchdog"), std::string::npos);

  cfg.fault.kind = resilience::FaultPlan::Kind::Stall;
  cfg.fault.cycle = 9;
  cfg.fault.rank = 1;
  cfg.fault.stall_ms = 75;
  cfg.fault.seed = 1234;
  cfg.health_every = 4;
  cfg.scheduler.watchdog_seconds = 1.5;
  EXPECT_EQ(core::parse_simulation_config(core::to_string(cfg)), cfg);

  scenarios::ScenarioSpec spec = scenarios::get("strip");
  spec.apply_override("fault.kind", "nan");
  spec.apply_override("fault.cycle", "5");
  spec.apply_override("health-every", "2");
  spec.apply_override("watchdog", "0.5");
  spec.apply_override("recovery.checkpoint-every", "4");
  spec.apply_override("recovery.max_retries", "3"); // underscore spelling
  spec.apply_override("recovery.on-blowup", "fallback_executor");
  EXPECT_EQ(spec.fault.kind, resilience::FaultPlan::Kind::Nan);
  EXPECT_EQ(spec.fault.cycle, 5);
  EXPECT_EQ(spec.health_every, 2);
  EXPECT_EQ(spec.scheduler.watchdog_seconds, 0.5);
  EXPECT_EQ(spec.recovery.checkpoint_every, 4);
  EXPECT_EQ(spec.recovery.max_retries, 3);
  EXPECT_EQ(spec.recovery.on_blowup, resilience::RecoveryPolicy::OnBlowup::FallbackExecutor);
  EXPECT_TRUE(spec.recovery.supervised());

  EXPECT_THROW(spec.apply_override("health-every", "-2"), CheckFailure);
  EXPECT_THROW(spec.apply_override("recovery.on-blowup", "pray"), CheckFailure);
}

TEST(ResilienceConfig, RunEventJsonRoundTrip) {
  perf::RunReport r;
  r.scenario = "strip";
  r.events = {{"fault-injected", "", 3, "fault.kind=nan"},
              {"recovery", "halve_dt", 2, "retry 1/2"}};
  EXPECT_EQ(perf::run_report_from_json(perf::to_json(r)).events, r.events);
  // Reports without events keep their historical JSON shape.
  perf::RunReport plain;
  EXPECT_EQ(perf::to_json(plain).find("events"), std::string::npos);
}

std::string read_doc(const std::string& rel) {
  const std::string path = std::string(LTSWAVE_SOURCE_DIR) + "/" + rel;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(DocSync, RobustnessDocPinsTheResilienceSurface) {
  const std::string doc = read_doc("docs/robustness.md");
  // The CLI keys of the fault/recovery surface, the error taxonomy, and the
  // scenario-runner crash-restart keys must all be documented.
  for (const char* needle :
       {"fault.kind", "fault.cycle", "fault.seed", "health-every", "watchdog",
        "recovery.checkpoint-every", "recovery.max-retries", "recovery.on-blowup",
        "halve_dt", "fallback_executor", "NumericalBlowup", "WorkerStall", "CorruptInput",
        "CheckpointMismatch", "checkpoint-every", "kill-at-cycle", "restore=",
        "kill_resume_smoke.sh"})
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/robustness.md must mention " << needle;
}

TEST(DocSync, RobustnessDocPinsTheCheckpointFormat) {
  const std::string doc = read_doc("docs/robustness.md");
  const std::string version =
      "currently `" + std::to_string(resilience::Checkpoint::kVersion) + "`";
  EXPECT_NE(doc.find(version), std::string::npos) << "header table must say " << version;
  EXPECT_NE(doc.find("XXH64"), std::string::npos) << "header table must name the checksum";
}

TEST(DocSync, RobustnessDocIsLinked) {
  EXPECT_NE(read_doc("README.md").find("docs/robustness.md"), std::string::npos);
  EXPECT_NE(read_doc("docs/architecture.md").find("robustness.md"), std::string::npos);
}

} // namespace
} // namespace ltswave

#pragma once

/// \file checkpoint.hpp
/// Versioned, checksummed binary checkpoints of a running simulation.
///
/// A Checkpoint is the complete restartable image of a WaveSimulation at a
/// cycle boundary: the backend's ExecutorState snapshot (u, v_half, clock,
/// work counters, frozen-force accumulators — see core/executor.hpp) plus the
/// facade-level receiver trace history. Sources and receivers themselves are
/// *configuration*, not state — a restore target is a facade built from the
/// same scenario, which re-registers them before restoring.
///
/// On-disk format (native endianness — checkpoints are a crash-recovery
/// mechanism for the machine that wrote them, not an interchange format):
///
///   8 bytes  magic "LTSWCKPT"
///   4 bytes  format version (kVersion)
///   1 byte   byte-order tag (0x01 little-endian, 0x02 big-endian)
///   1 byte   sizeof(real_t) of the writing build
///   8 bytes  payload byte count
///   8 bytes  XXH64 checksum (seed 0) of the payload
///   payload  length-prefixed fields in a fixed order (visit_payload in
///            checkpoint.cpp, the single definition every reader and
///            writer shares)
///
/// The two arch-tag bytes make "not an interchange format" enforceable: a
/// checkpoint carried to a machine (or build) with a different byte order or
/// real_t width fails with CheckpointMismatch naming the difference, instead
/// of passing the checksum and deserializing garbage numbers. Version 2
/// added the arch tag plus the integrator name and aux-state payload fields;
/// version 3 replaced the byte-serial FNV-1a checksum with XXH64 and left
/// the layout alone; version 4 dropped the two integrator fields again with
/// the integrator axis. Files of any earlier version are refused
/// (CorruptInput, unsupported version).
///
/// load() verifies magic, version, length, every field count against the
/// bytes left, and the checksum, and throws CorruptInput naming what failed —
/// a truncated, bit-flipped or hostile checkpoint is refused loudly, never
/// silently restored. save() writes to a temp file in the same directory and
/// renames it into place, so a crash mid-save never clobbers the previous
/// good checkpoint.
///
/// Memory bound: save() and load() stream each field between its vector and
/// the file and hold no second copy of the state — save() makes one pass to
/// size and checksum the caller's vectors and a second to write them; load()
/// reads each field straight into the Checkpoint it returns, hashing as it
/// reads. Only serialize() materialises the image, because returning it is
/// its job.
///
/// Restore across *backends* is first-class: a checkpoint written by
/// "threaded/level-aware+steal" restores onto "serial-lts" (the frozen
/// accumulators are dropped and recomputed — exact to roundoff; same-backend
/// restores are bitwise). Compatibility of the discretization itself is the
/// caller's contract: the state must have the same dof count, enforced by
/// Executor::import_state (CheckpointMismatch).

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/executor.hpp"

namespace ltswave::resilience {

struct Checkpoint {
  static constexpr std::uint32_t kVersion = 4;

  /// Registry name of the exporting backend — informational plus a mismatch
  /// diagnostic; restore onto any backend is allowed.
  std::string executor;
  /// Free-form config string of the writing run (kv grammar), informational.
  std::string config;
  core::ExecutorState state;

  /// Facade-level receiver trace history at the snapshot (one entry per
  /// registered receiver, in registration order).
  struct TraceHistory {
    std::vector<real_t> times;
    std::vector<real_t> values;

    bool operator==(const TraceHistory&) const = default;
  };
  std::vector<TraceHistory> traces;

  bool operator==(const Checkpoint&) const = default;
};

/// The framed binary image (header + checksummed payload) / its inverse.
/// deserialize throws CorruptInput on bad magic, unknown version, truncation,
/// a count larger than the bytes left, trailing bytes or checksum mismatch.
[[nodiscard]] std::vector<std::uint8_t> serialize(const Checkpoint& ck);
[[nodiscard]] Checkpoint deserialize(const std::uint8_t* data, std::size_t size);

/// Atomic file write (temp + rename) / checked read of a serialized
/// checkpoint; save(ck, p) writes exactly the bytes of serialize(ck). save
/// throws resilience::Error naming the path on any I/O failure and leaves no
/// temp file behind; load throws CorruptInput with the path on any
/// validation failure.
void save(const Checkpoint& ck, const std::string& path);
[[nodiscard]] Checkpoint load(const std::string& path);

/// XXH64 with seed 0 (the published xxHash spec) — the payload checksum.
/// Streaming: any split of the input into update() calls gives the digest
/// of the whole. Exposed for tests that corrupt payload bytes and re-sign
/// them.
class Xxh64 {
public:
  Xxh64() noexcept;
  void update(const void* data, std::size_t size) noexcept;
  [[nodiscard]] std::uint64_t digest() const noexcept;

private:
  std::array<std::uint64_t, 4> acc_;
  std::array<std::uint8_t, 32> buf_{}; ///< the unconsumed tail of a 32-byte stripe
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
};

/// One-shot XXH64 (seed 0) of `size` bytes.
[[nodiscard]] std::uint64_t xxh64(const void* data, std::size_t size) noexcept;

} // namespace ltswave::resilience

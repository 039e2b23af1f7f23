#pragma once

/// \file error.hpp
/// Structured error taxonomy for the resilience layer.
///
/// Every failure a supervised run can recover from gets its own type, so a
/// Supervisor (or a test) can catch precisely what it means to handle instead
/// of string-matching `std::runtime_error::what()`:
///
///  * NumericalBlowup    — NaN/Inf in the state vectors or runaway energy
///                         growth; the classic over-aggressive-dt failure.
///  * WorkerStall        — a pool worker stopped making progress past the
///                         watchdog timeout (runtime/thread_pool.hpp).
///  * CorruptInput       — a mesh/config file failed validation; carries
///                         file:line context from the parser.
///  * CheckpointMismatch — a checkpoint file failed its magic/version/
///                         checksum/shape checks on load or restore.
///  * InvalidConfig      — a scenario names an unknown key, scenario or mesh
///                         generator, or asks for something its physics
///                         cannot provide (e.g. a receiver component out of
///                         range); raised before any run starts, never
///                         retried.
///
/// All of them derive from CheckFailure so the existing contract-boundary
/// call sites (`catch (const CheckFailure&)`, `EXPECT_THROW(..,
/// CheckFailure)`) keep working unchanged: the taxonomy refines the existing
/// failure channel, it does not fork a second one.

#include <sstream>
#include <string>

#include "common/check.hpp"

namespace ltswave::resilience {

class Error : public CheckFailure {
public:
  using CheckFailure::CheckFailure;
};

/// NaN/Inf in u or v_half, or energy growing past the guard's factor.
class NumericalBlowup : public Error {
public:
  using Error::Error;
};

/// A pool worker made no progress for longer than the watchdog timeout.
class WorkerStall : public Error {
public:
  using Error::Error;
};

/// A mesh or input file failed structural validation; the message carries
/// file (and where possible line) context.
class CorruptInput : public Error {
public:
  using Error::Error;
};

/// A checkpoint failed its magic/version/checksum/shape validation.
class CheckpointMismatch : public Error {
public:
  using Error::Error;
};

/// A scenario name or field is unknown or out of range for the chosen
/// physics; the message names the bad value and what is accepted.
class InvalidConfig : public Error {
public:
  using Error::Error;
};

} // namespace ltswave::resilience

/// Throws `ErrorType` with an ostream-composed message, mirroring
/// LTS_CHECK_MSG's message ergonomics for the typed taxonomy.
#define LTS_RAISE(ErrorType, msg)                                                                  \
  do {                                                                                             \
    std::ostringstream lts_raise_os_;                                                              \
    lts_raise_os_ << msg;                                                                          \
    throw ErrorType(lts_raise_os_.str());                                                          \
  } while (false)

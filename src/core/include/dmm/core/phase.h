#ifndef DMM_CORE_PHASE_H
#define DMM_CORE_PHASE_H

#include <cstdint>
#include <vector>

#include "dmm/core/trace.h"

namespace dmm::core {

/// One detected logical phase of an application's DM behaviour (Sec. 3.3:
/// "real applications include different DM behaviour patterns, which are
/// linked to their logical phases").
struct PhaseSpan {
  std::uint16_t phase = 0;        ///< phase id assigned
  std::size_t first_event = 0;    ///< inclusive
  std::size_t last_event = 0;     ///< inclusive
};

struct PhaseDetectorOptions {
  /// Window length (events) over which size distributions are compared.
  std::size_t window = 2048;
  /// Jensen-Shannon divergence (bits) above which a boundary is declared.
  double threshold = 0.35;
  /// Windows shorter than this are merged into their neighbour.
  std::size_t min_phase_events = 1024;
};

/// Detects behaviour phases by sliding a window over the trace and
/// declaring a boundary whenever the allocation-size-class distribution of
/// adjacent windows diverges.  Returns at least one span covering the
/// whole trace.
[[nodiscard]] std::vector<PhaseSpan> detect_phases(
    const AllocTrace& trace, const PhaseDetectorOptions& opts = {});

/// Rewrites the phase field of every event according to @p spans.
void apply_phases(AllocTrace& trace, const std::vector<PhaseSpan>& spans);

/// Splits a trace into per-phase sub-traces *by allocation phase*: an
/// object belongs to the phase it was allocated in, and its free event
/// follows it (the atomic manager that allocated a block must free it).
/// Each sub-trace renumbers its ids densely, by rank among that phase's
/// distinct ids; the order-preserving map leaves every replay unchanged.
[[nodiscard]] std::vector<AllocTrace> split_by_phase(const AllocTrace& trace);

}  // namespace dmm::core

#endif  // DMM_CORE_PHASE_H

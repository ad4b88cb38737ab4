#ifndef DMM_ALLOC_POLICY_CORE_H
#define DMM_ALLOC_POLICY_CORE_H

#include "dmm/alloc/custom_manager.h"

namespace dmm::alloc {

// ---------------------------------------------------------------------------
// The policy-core / runtime-front split.
//
// Everything the methodology designs lives in the *policy core*: pool
// layout and routing (B trees), fit and ordering decisions (C trees),
// split/coalesce mechanics (A5, D, E trees), all read through the typed
// knob view of knobs.h.  The core is deliberately single-threaded and
// bit-deterministic — the properties replay scoring (core/simulator.h)
// and the EvalEngine candidate cache depend on.
// CustomManager IS that core; this alias names the role so call sites can
// say which contract they rely on:
//
//   * design-side users (simulator, eval engine, methodology) build a
//     PolicyCore per candidate and replay traces through it — they need
//     determinism and must never see locks or caches;
//   * the deployable front (runtime/designed_allocator.h) owns exactly one
//     PolicyCore behind a lock and layers per-thread caches, OOM policy
//     and telemetry on top — concerns the design side must never score.
//
// Keeping the split at the type level (one class, two named roles) rather
// than forking the allocator is what guarantees the deployed layout is
// byte-for-byte the layout the offline search evaluated.
// ---------------------------------------------------------------------------

using PolicyCore = CustomManager;

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_POLICY_CORE_H

#include "dmm/alloc/config.h"

#include <sstream>

namespace dmm::alloc {

std::string to_string(BlockStructure v) {
  switch (v) {
    case BlockStructure::kSinglyLinkedList: return "sll";
    case BlockStructure::kDoublyLinkedList: return "dll";
    case BlockStructure::kSinglySortedBySize: return "sll-sorted";
    case BlockStructure::kDoublySortedBySize: return "dll-sorted";
    case BlockStructure::kSizeBinaryTree: return "size-bst";
  }
  return "?";
}

std::string to_string(BlockSizes v) {
  switch (v) {
    case BlockSizes::kFixedClasses: return "fixed-classes";
    case BlockSizes::kMany: return "many";
  }
  return "?";
}

std::string to_string(BlockTags v) {
  switch (v) {
    case BlockTags::kNone: return "none";
    case BlockTags::kHeader: return "header";
    case BlockTags::kFooter: return "footer";
    case BlockTags::kHeaderFooter: return "header+footer";
  }
  return "?";
}

std::string to_string(RecordedInfo v) {
  switch (v) {
    case RecordedInfo::kNone: return "none";
    case RecordedInfo::kSize: return "size";
    case RecordedInfo::kStatus: return "status";
    case RecordedInfo::kSizeAndStatus: return "size+status";
  }
  return "?";
}

std::string to_string(FlexibleBlockSize v) {
  switch (v) {
    case FlexibleBlockSize::kNone: return "none";
    case FlexibleBlockSize::kSplitOnly: return "split-only";
    case FlexibleBlockSize::kCoalesceOnly: return "coalesce-only";
    case FlexibleBlockSize::kSplitAndCoalesce: return "split+coalesce";
  }
  return "?";
}

std::string to_string(PoolDivision v) {
  switch (v) {
    case PoolDivision::kSinglePool: return "single-pool";
    case PoolDivision::kPoolPerSizeClass: return "per-size-class";
    case PoolDivision::kPoolPerExactSize: return "per-exact-size";
  }
  return "?";
}

std::string to_string(PoolStructure v) {
  switch (v) {
    case PoolStructure::kArray: return "array";
    case PoolStructure::kLinkedList: return "linked-list";
  }
  return "?";
}

std::string to_string(PoolCount v) {
  switch (v) {
    case PoolCount::kOne: return "one";
    case PoolCount::kStaticMany: return "static-many";
    case PoolCount::kDynamic: return "dynamic";
  }
  return "?";
}

std::string to_string(PoolAdaptivity v) {
  switch (v) {
    case PoolAdaptivity::kStaticPreallocated: return "static";
    case PoolAdaptivity::kGrowOnly: return "grow-only";
    case PoolAdaptivity::kGrowAndShrink: return "grow+shrink";
  }
  return "?";
}

std::string to_string(FitAlgorithm v) {
  switch (v) {
    case FitAlgorithm::kFirstFit: return "first-fit";
    case FitAlgorithm::kNextFit: return "next-fit";
    case FitAlgorithm::kBestFit: return "best-fit";
    case FitAlgorithm::kWorstFit: return "worst-fit";
    case FitAlgorithm::kExactFit: return "exact-fit";
  }
  return "?";
}

std::string to_string(FreeListOrder v) {
  switch (v) {
    case FreeListOrder::kLIFO: return "lifo";
    case FreeListOrder::kFIFO: return "fifo";
    case FreeListOrder::kAddressOrdered: return "addr-ordered";
    case FreeListOrder::kSizeOrdered: return "size-ordered";
  }
  return "?";
}

std::string to_string(CoalesceSizes v) {
  switch (v) {
    case CoalesceSizes::kNotFixed: return "not-fixed";
    case CoalesceSizes::kBoundedByClass: return "bounded";
  }
  return "?";
}

std::string to_string(CoalesceWhen v) {
  switch (v) {
    case CoalesceWhen::kNever: return "never";
    case CoalesceWhen::kDeferred: return "deferred";
    case CoalesceWhen::kAlways: return "always";
  }
  return "?";
}

std::string to_string(SplitSizes v) {
  switch (v) {
    case SplitSizes::kNotFixed: return "not-fixed";
    case SplitSizes::kBoundedByClass: return "bounded";
  }
  return "?";
}

std::string to_string(SplitWhen v) {
  switch (v) {
    case SplitWhen::kNever: return "never";
    case SplitWhen::kDeferred: return "deferred";
    case SplitWhen::kAlways: return "always";
  }
  return "?";
}

std::string describe(const DmmConfig& c) {
  std::ostringstream os;
  os << "A1 block structure     : " << to_string(c.block_structure) << '\n'
     << "A2 block sizes         : " << to_string(c.block_sizes) << '\n'
     << "A3 block tags          : " << to_string(c.block_tags) << '\n'
     << "A4 recorded info       : " << to_string(c.recorded_info) << '\n'
     << "A5 flexible block size : " << to_string(c.flexible) << '\n'
     << "B1 pool division       : " << to_string(c.pool_division) << '\n'
     << "B2 pool structure      : " << to_string(c.pool_structure) << '\n'
     << "B3 pool count          : " << to_string(c.pool_count) << '\n'
     << "B4 pool adaptivity     : " << to_string(c.adaptivity) << '\n'
     << "C1 fit algorithm       : " << to_string(c.fit) << '\n'
     << "C2 free-list order     : " << to_string(c.order) << '\n'
     << "D1 coalesce sizes      : " << to_string(c.coalesce_sizes) << '\n'
     << "D2 coalesce when       : " << to_string(c.coalesce_when) << '\n'
     << "E1 split sizes         : " << to_string(c.split_sizes) << '\n'
     << "E2 split when          : " << to_string(c.split_when) << '\n';
  return os.str();
}

std::string signature(const DmmConfig& c) {
  std::ostringstream os;
  os << "A1=" << to_string(c.block_structure)
     << " A2=" << to_string(c.block_sizes)
     << " A3=" << to_string(c.block_tags)
     << " A4=" << to_string(c.recorded_info)
     << " A5=" << to_string(c.flexible)
     << " B1=" << to_string(c.pool_division)
     << " B2=" << to_string(c.pool_structure)
     << " B3=" << to_string(c.pool_count)
     << " B4=" << to_string(c.adaptivity)
     << " C1=" << to_string(c.fit)
     << " C2=" << to_string(c.order)
     << " D1=" << to_string(c.coalesce_sizes)
     << " D2=" << to_string(c.coalesce_when)
     << " E1=" << to_string(c.split_sizes)
     << " E2=" << to_string(c.split_when);
  return os.str();
}

DmmConfig drr_paper_config() {
  // Sec. 5 decision walk for DRR, in the published order:
  //   A2=many, A5=split&coalesce, E2=always, D2=always, E1=not fixed,
  //   D1=not fixed, B4 (grow+shrink: "returned back to the system"),
  //   B1=single pool (+B2 simplest), C1=exact fit, A1=double linked list,
  //   A3/A4=header with size and status.
  DmmConfig c;
  c.block_sizes = BlockSizes::kMany;
  c.flexible = FlexibleBlockSize::kSplitAndCoalesce;
  c.split_when = SplitWhen::kAlways;
  c.coalesce_when = CoalesceWhen::kAlways;
  c.split_sizes = SplitSizes::kNotFixed;
  c.coalesce_sizes = CoalesceSizes::kNotFixed;
  c.adaptivity = PoolAdaptivity::kGrowAndShrink;
  c.pool_division = PoolDivision::kSinglePool;
  c.pool_structure = PoolStructure::kArray;
  c.pool_count = PoolCount::kOne;
  c.fit = FitAlgorithm::kExactFit;
  c.block_structure = BlockStructure::kDoublyLinkedList;
  // The paper says "header field ... information about the size and status";
  // backward coalescing additionally needs the boundary footer, which the
  // layout engine only emits on free blocks (dlmalloc trick), so the
  // full-tags choice costs nothing on live blocks.
  c.block_tags = BlockTags::kHeaderFooter;
  c.recorded_info = RecordedInfo::kSizeAndStatus;
  return c;
}

DmmConfig minimal_config() {
  DmmConfig c;
  c.block_structure = BlockStructure::kSinglyLinkedList;
  c.block_sizes = BlockSizes::kMany;
  c.block_tags = BlockTags::kNone;
  c.recorded_info = RecordedInfo::kNone;
  c.flexible = FlexibleBlockSize::kNone;
  c.pool_division = PoolDivision::kPoolPerExactSize;
  c.pool_structure = PoolStructure::kArray;
  c.pool_count = PoolCount::kDynamic;
  c.adaptivity = PoolAdaptivity::kGrowOnly;
  c.fit = FitAlgorithm::kFirstFit;
  c.order = FreeListOrder::kLIFO;
  c.coalesce_sizes = CoalesceSizes::kNotFixed;
  c.coalesce_when = CoalesceWhen::kNever;
  c.split_sizes = SplitSizes::kNotFixed;
  c.split_when = SplitWhen::kNever;
  return c;
}

DmmConfig fig4_wrong_order_config() {
  // Fig. 4: deciding A3 first picks "none" to save the per-block field,
  // which (after constraint propagation) forces D2=E2=never — the manager
  // can no longer fight fragmentation at all.
  DmmConfig c = drr_paper_config();
  c.block_tags = BlockTags::kNone;
  c.recorded_info = RecordedInfo::kNone;
  c.flexible = FlexibleBlockSize::kNone;
  c.split_when = SplitWhen::kNever;
  c.coalesce_when = CoalesceWhen::kNever;
  // Without size tags the manager must divide pools by size so it can
  // recover block sizes from pool membership (Fig. 3 interdependency).
  c.pool_division = PoolDivision::kPoolPerExactSize;
  c.pool_count = PoolCount::kDynamic;
  c.block_structure = BlockStructure::kSinglyLinkedList;
  c.fit = FitAlgorithm::kFirstFit;
  return c;
}

DmmConfig canonical(const DmmConfig& cfg) {
  DmmConfig c = cfg;
  const DmmConfig defaults{};
  const bool can_split = (c.flexible == FlexibleBlockSize::kSplitOnly ||
                          c.flexible == FlexibleBlockSize::kSplitAndCoalesce) &&
                         c.split_when != SplitWhen::kNever;
  const bool can_coalesce =
      (c.flexible == FlexibleBlockSize::kCoalesceOnly ||
       c.flexible == FlexibleBlockSize::kSplitAndCoalesce) &&
      c.coalesce_when != CoalesceWhen::kNever;
  // A mechanism acts only when A5 grants it AND its schedule runs (the
  // Pool gates on both), so the pair collapses to its effective value:
  // "granted but never scheduled" and "scheduled but not granted" build
  // the same manager as "off".
  c.flexible = can_split && can_coalesce ? FlexibleBlockSize::kSplitAndCoalesce
               : can_split               ? FlexibleBlockSize::kSplitOnly
               : can_coalesce            ? FlexibleBlockSize::kCoalesceOnly
                                         : FlexibleBlockSize::kNone;
  if (!can_split) c.split_when = SplitWhen::kNever;
  if (!can_coalesce) c.coalesce_when = CoalesceWhen::kNever;
  // B3 (pool count) is read only when pools are divided by size
  // class: the constructor pre-creates the kStaticMany roster and route()
  // grows the kDynamic one, both only under kPoolPerSizeClass.  A
  // single-pool manager creates pool 0 unconditionally and a per-exact-
  // size manager makes pools on first sight of a size whatever B3 says —
  // no branch of CustomManager/Pool reads pool_count under those
  // divisions, so every B3 leaf builds the same manager doing the same
  // work (routing_steps included).  Collapse to the representative the
  // B1->B3 hard rules force anyway, so near-miss invalid aliases also
  // unify.  B2 (pool structure) must NOT collapse even for a single
  // pool: find_pool's linked-list scan charges one routing step per
  // lookup where the array path charges none, and work_steps is both a
  // tie-break and the time_weight objective term — see
  // test_search_strategies.cpp (B2SinglePoolAliasesStayDistinct).
  if (c.pool_division == PoolDivision::kSinglePool) {
    c.pool_count = PoolCount::kOne;
  } else if (c.pool_division == PoolDivision::kPoolPerExactSize) {
    c.pool_count = PoolCount::kDynamic;
  }
  // Self-ordering DDTs ignore the C2 discipline (FreeIndex overrides it).
  if (c.block_structure == BlockStructure::kSinglySortedBySize ||
      c.block_structure == BlockStructure::kDoublySortedBySize ||
      c.block_structure == BlockStructure::kSizeBinaryTree) {
    c.order = FreeListOrder::kSizeOrdered;
  }
  if (!can_split) {
    c.split_sizes = defaults.split_sizes;
    c.deferred_split_min = defaults.deferred_split_min;
  } else if (c.split_when != SplitWhen::kDeferred) {
    c.deferred_split_min = defaults.deferred_split_min;
  }
  if (!can_coalesce) c.coalesce_sizes = defaults.coalesce_sizes;
  const bool class_bounded =
      (can_split && c.split_sizes == SplitSizes::kBoundedByClass) ||
      (can_coalesce && c.coalesce_sizes == CoalesceSizes::kBoundedByClass);
  if (!class_bounded) c.max_class_log2 = defaults.max_class_log2;
  if (c.adaptivity == PoolAdaptivity::kStaticPreallocated) {
    // Static managers never take the dedicated-chunk path (chunk_bytes
    // still shapes the one up-front grant, so it stays).
    c.big_request_bytes = defaults.big_request_bytes;
  } else {
    c.static_pool_bytes = defaults.static_pool_bytes;
  }
  return c;
}

std::size_t hash_combine(std::size_t seed, std::size_t value) {
  seed ^= value;
  seed *= 1099511628211ull;  // FNV prime
  return seed;
}

std::size_t hash_value(const DmmConfig& cfg) {
  std::size_t h = 1469598103934665603ull;  // FNV offset basis
  const auto mix = [&h](std::size_t v) {
    h ^= v;
    h *= 1099511628211ull;  // FNV prime
  };
  mix(static_cast<std::size_t>(cfg.block_structure));
  mix(static_cast<std::size_t>(cfg.block_sizes));
  mix(static_cast<std::size_t>(cfg.block_tags));
  mix(static_cast<std::size_t>(cfg.recorded_info));
  mix(static_cast<std::size_t>(cfg.flexible));
  mix(static_cast<std::size_t>(cfg.pool_division));
  mix(static_cast<std::size_t>(cfg.pool_structure));
  mix(static_cast<std::size_t>(cfg.pool_count));
  mix(static_cast<std::size_t>(cfg.adaptivity));
  mix(static_cast<std::size_t>(cfg.fit));
  mix(static_cast<std::size_t>(cfg.order));
  mix(static_cast<std::size_t>(cfg.coalesce_sizes));
  mix(static_cast<std::size_t>(cfg.coalesce_when));
  mix(static_cast<std::size_t>(cfg.split_sizes));
  mix(static_cast<std::size_t>(cfg.split_when));
  mix(cfg.chunk_bytes);
  mix(cfg.big_request_bytes);
  mix(cfg.static_pool_bytes);
  mix(cfg.deferred_split_min);
  mix(static_cast<std::size_t>(cfg.max_class_log2));
  return h;
}

}  // namespace dmm::alloc

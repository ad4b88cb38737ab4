#include "dmm/alloc/free_index.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace dmm::alloc {

namespace {
[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dmm::alloc::FreeIndex fatal: %s\n", what);
  std::abort();
}
}  // namespace

// Link overlays live at block + link_offset_, inside the free payload.
struct FreeIndex::ListNode {
  std::byte* next;
  std::byte* prev;  // present only for doubly-linked DDTs
};

struct FreeIndex::TreeNode {
  std::byte* left;
  std::byte* right;
  std::byte* parent;
};

FreeIndex::FreeIndex(BlockStructure ddt, KnobView knobs,
                     const BlockLayout& layout, std::size_t fixed_size)
    : ddt_(ddt),
      knobs_(knobs),
      link_offset_(layout.header_bytes()),
      layout_(layout),
      fixed_size_(fixed_size) {}

FreeIndex::FreeIndex(BlockStructure ddt, FreeListOrder pinned_order,
                     const BlockLayout& layout, std::size_t fixed_size)
    : ddt_(ddt),
      pinned_order_(pinned_order),
      link_offset_(layout.header_bytes()),
      layout_(layout),
      fixed_size_(fixed_size) {}

FreeListOrder FreeIndex::discipline() const {
  // Self-ordering DDTs override the C2 knob (the constraint engine reports
  // such combinations as linked decisions, not errors).
  const FreeListOrder order = knobs_ ? knobs_->order() : pinned_order_;
  if (sorted_by_size() || ddt_ == BlockStructure::kSizeBinaryTree) {
    return FreeListOrder::kSizeOrdered;
  }
  return order;
}

std::size_t FreeIndex::link_bytes(BlockStructure ddt) {
  switch (ddt) {
    case BlockStructure::kSinglyLinkedList:
    case BlockStructure::kSinglySortedBySize:
      return sizeof(std::byte*);
    case BlockStructure::kDoublyLinkedList:
    case BlockStructure::kDoublySortedBySize:
      return 2 * sizeof(std::byte*);
    case BlockStructure::kSizeBinaryTree:
      return 3 * sizeof(std::byte*);
  }
  return 2 * sizeof(std::byte*);
}

FreeIndex::ListNode* FreeIndex::list_node(std::byte* b) const {
  return reinterpret_cast<ListNode*>(b + link_offset_);
}

FreeIndex::TreeNode* FreeIndex::tree_node(std::byte* b) const {
  return reinterpret_cast<TreeNode*>(b + link_offset_);
}

bool FreeIndex::doubly_linked() const {
  return ddt_ == BlockStructure::kDoublyLinkedList ||
         ddt_ == BlockStructure::kDoublySortedBySize;
}

bool FreeIndex::sorted_by_size() const {
  return ddt_ == BlockStructure::kSinglySortedBySize ||
         ddt_ == BlockStructure::kDoublySortedBySize;
}

// ---------------------------------------------------------------------------
// insert / remove / take dispatch
// ---------------------------------------------------------------------------

void FreeIndex::insert(std::byte* block) {
  if (count_ == 0) {
    // First resident block: every discipline files it identically (head =
    // tail = block, no scan), so the ordering knob is not read.
    if (ddt_ == BlockStructure::kSizeBinaryTree) {
      tree_insert(block);
    } else {
      list_push_front(block);
    }
  } else {
    // With at least one resident block the insertion position depends on
    // the ordering policy (C2).
    const FreeListOrder order = discipline();
    if (ddt_ == BlockStructure::kSizeBinaryTree) {
      tree_insert(block);
    } else if (order == FreeListOrder::kSizeOrdered) {
      list_insert_sorted(block, /*by_size=*/true);
    } else if (order == FreeListOrder::kAddressOrdered) {
      list_insert_sorted(block, /*by_size=*/false);
    } else if (order == FreeListOrder::kFIFO) {
      list_push_back(block);
    } else {
      list_push_front(block);
    }
  }
  ++count_;
  bytes_ += size_of(block);
}

void FreeIndex::remove(std::byte* block) {
  if (ddt_ == BlockStructure::kSizeBinaryTree) {
    tree_remove(block);
  } else {
    list_unlink(block, doubly_linked() ? nullptr : list_prev_of(block));
  }
  --count_;
  bytes_ -= size_of(block);
}

std::byte* FreeIndex::take_fit(std::size_t need) {
  // The fit policy (C1) is read only when the choice could matter.  On a
  // list with exactly one block every policy scans that one node, takes it
  // iff it fits, and updates the cursor identically — no divergence until
  // two candidates coexist.  On a 1-node tree the policies already differ
  // observably (worst fit descends the right spine and charges different
  // scan_steps than the >=-need descent), so trees read the knob from one
  // block.
  if (!knobs_) die("take_fit without a fit: pinned-policy index");
  if (count_ == 0) return nullptr;
  std::byte* b = nullptr;
  if (ddt_ == BlockStructure::kSizeBinaryTree) {
    b = tree_take(need, knobs_->fit());
  } else if (count_ == 1) {
    // Policy-free single-node path, bit-identical to every fit algorithm:
    // one scan step, take iff it fits, cursor lands past the taken block.
    ++scan_steps_;
    if (size_of(head_) >= need) {
      b = head_;
      cursor_ = list_node(b)->next;
      list_unlink(b, nullptr);
    }
  } else {
    b = list_take(need, knobs_->fit());
  }
  if (b != nullptr) {
    --count_;
    bytes_ -= size_of(b);
  }
  return b;
}

std::byte* FreeIndex::take_fit(std::size_t need, FitAlgorithm fit) {
  if (count_ == 0) return nullptr;
  std::byte* b = ddt_ == BlockStructure::kSizeBinaryTree
                     ? tree_take(need, fit)
                     : list_take(need, fit);
  if (b != nullptr) {
    --count_;
    bytes_ -= size_of(b);
  }
  return b;
}

std::byte* FreeIndex::pop_any() {
  if (count_ == 0) return nullptr;
  if (ddt_ == BlockStructure::kSizeBinaryTree) {
    std::byte* b = root_;
    tree_remove(b);
    --count_;
    bytes_ -= size_of(b);
    return b;
  }
  std::byte* b = head_;
  list_unlink(b, nullptr);
  --count_;
  bytes_ -= size_of(b);
  return b;
}

bool FreeIndex::contains(const std::byte* block) const {
  bool found = false;
  for_each([&](std::byte* b) { found = found || b == block; });
  return found;
}

void FreeIndex::for_each(const std::function<void(std::byte*)>& fn) const {
  if (ddt_ == BlockStructure::kSizeBinaryTree) {
    // In-order traversal with an explicit stack; fn must not mutate the
    // tree (library-internal contract, only tests and pool drains use it).
    std::vector<std::byte*> stack;
    std::byte* cur = root_;
    while (cur != nullptr || !stack.empty()) {
      while (cur != nullptr) {
        stack.push_back(cur);
        cur = tree_node(cur)->left;
      }
      cur = stack.back();
      stack.pop_back();
      std::byte* right = tree_node(cur)->right;
      fn(cur);
      cur = right;
    }
    return;
  }
  for (std::byte* b = head_; b != nullptr; b = list_node(b)->next) fn(b);
}

// ---------------------------------------------------------------------------
// list primitives
// ---------------------------------------------------------------------------

void FreeIndex::list_push_front(std::byte* b) {
  ListNode* n = list_node(b);
  n->next = head_;
  if (doubly_linked()) {
    n->prev = nullptr;
    if (head_ != nullptr) list_node(head_)->prev = b;
  }
  head_ = b;
  if (tail_ == nullptr) tail_ = b;
}

void FreeIndex::list_push_back(std::byte* b) {
  ListNode* n = list_node(b);
  n->next = nullptr;
  if (doubly_linked()) n->prev = tail_;
  if (tail_ != nullptr) {
    list_node(tail_)->next = b;
  } else {
    head_ = b;
  }
  tail_ = b;
}

void FreeIndex::list_insert_sorted(std::byte* b, bool by_size) {
  const std::size_t key = by_size ? size_of(b) : 0;
  std::byte* prev = nullptr;
  std::byte* cur = head_;
  while (cur != nullptr) {
    ++scan_steps_;
    const bool after = by_size ? (size_of(cur) < key ||
                                  (size_of(cur) == key && cur < b))
                               : (cur < b);
    if (!after) break;
    prev = cur;
    cur = list_node(cur)->next;
  }
  ListNode* n = list_node(b);
  n->next = cur;
  if (doubly_linked()) {
    n->prev = prev;
    if (cur != nullptr) list_node(cur)->prev = b;
  }
  if (prev != nullptr) {
    list_node(prev)->next = b;
  } else {
    head_ = b;
  }
  if (cur == nullptr) tail_ = b;
}

std::byte* FreeIndex::list_prev_of(std::byte* b) const {
  if (b == head_) return nullptr;
  for (std::byte* cur = head_; cur != nullptr; cur = list_node(cur)->next) {
    ++scan_steps_;
    if (list_node(cur)->next == b) return cur;
  }
  die("remove() of a block that is not in the free list");
}

void FreeIndex::list_unlink(std::byte* b, std::byte* prev_hint) {
  ListNode* n = list_node(b);
  std::byte* prev = doubly_linked() ? n->prev : prev_hint;
  if (b == head_) {
    head_ = n->next;
  } else if (prev != nullptr) {
    list_node(prev)->next = n->next;
  } else {
    die("unlink without predecessor");
  }
  if (doubly_linked() && n->next != nullptr) list_node(n->next)->prev = prev;
  if (b == tail_) tail_ = prev;
  if (cursor_ == b) cursor_ = n->next;
}

std::byte* FreeIndex::list_take(std::size_t need, FitAlgorithm fit) {
  auto scan_first = [&](std::byte* start) -> std::byte* {
    std::byte* prev = (start == head_) ? nullptr : list_prev_of(start);
    for (std::byte* cur = start; cur != nullptr;
         prev = cur, cur = list_node(cur)->next) {
      ++scan_steps_;
      if (size_of(cur) >= need) {
        cursor_ = list_node(cur)->next;
        list_unlink(cur, prev);
        return cur;
      }
    }
    return nullptr;
  };

  switch (fit) {
    case FitAlgorithm::kFirstFit:
      return head_ != nullptr ? scan_first(head_) : nullptr;
    case FitAlgorithm::kNextFit: {
      if (head_ == nullptr) return nullptr;
      std::byte* start = cursor_ != nullptr ? cursor_ : head_;
      // Scan [start, end), then wrap to [head, start).
      std::byte* prev = (start == head_) ? nullptr : list_prev_of(start);
      for (std::byte* cur = start; cur != nullptr;
           prev = cur, cur = list_node(cur)->next) {
        ++scan_steps_;
        if (size_of(cur) >= need) {
          cursor_ = list_node(cur)->next;
          list_unlink(cur, prev);
          return cur;
        }
      }
      prev = nullptr;
      for (std::byte* cur = head_; cur != start && cur != nullptr;
           prev = cur, cur = list_node(cur)->next) {
        ++scan_steps_;
        if (size_of(cur) >= need) {
          cursor_ = list_node(cur)->next;
          list_unlink(cur, prev);
          return cur;
        }
      }
      return nullptr;
    }
    case FitAlgorithm::kBestFit:
    case FitAlgorithm::kExactFit: {
      // On a size-sorted list, the first block >= need IS the best fit, and
      // an exact fit (if any) is encountered first among fitting blocks.
      const bool sorted = discipline() == FreeListOrder::kSizeOrdered;
      if (sorted) return head_ != nullptr ? scan_first(head_) : nullptr;
      std::byte* best = nullptr;
      std::byte* best_prev = nullptr;
      std::byte* prev = nullptr;
      for (std::byte* cur = head_; cur != nullptr;
           prev = cur, cur = list_node(cur)->next) {
        ++scan_steps_;
        const std::size_t sz = size_of(cur);
        if (sz < need) continue;
        if (best == nullptr || sz < size_of(best)) {
          best = cur;
          best_prev = prev;
          if (sz == need) break;  // cannot do better than exact
        }
      }
      // kExactFit differs from kBestFit only in *intent*: it insists on the
      // exact size when available and otherwise degrades to best fit, which
      // is the same choice best fit makes — but exact fit is typically
      // paired with always-split so the remainder is recovered (Sec. 5).
      if (best != nullptr) {
        cursor_ = list_node(best)->next;
        list_unlink(best, best_prev);
      }
      return best;
    }
    case FitAlgorithm::kWorstFit: {
      std::byte* worst = nullptr;
      std::byte* worst_prev = nullptr;
      std::byte* prev = nullptr;
      for (std::byte* cur = head_; cur != nullptr;
           prev = cur, cur = list_node(cur)->next) {
        ++scan_steps_;
        const std::size_t sz = size_of(cur);
        if (sz < need) continue;
        if (worst == nullptr || sz > size_of(worst)) {
          worst = cur;
          worst_prev = prev;
        }
      }
      if (worst != nullptr) {
        cursor_ = list_node(worst)->next;
        list_unlink(worst, worst_prev);
      }
      return worst;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// BST primitives — unbalanced binary search tree keyed by (size, address).
// Worst-case linear, expected logarithmic on the workloads' size mixes;
// the scan_steps counter exposes the real cost either way.
// ---------------------------------------------------------------------------

bool FreeIndex::tree_key_less(const std::byte* a, const std::byte* b) const {
  const std::size_t sa = size_of(a);
  const std::size_t sb = size_of(b);
  return sa < sb || (sa == sb && a < b);
}

void FreeIndex::tree_insert(std::byte* b) {
  TreeNode* n = tree_node(b);
  n->left = n->right = n->parent = nullptr;
  if (root_ == nullptr) {
    root_ = b;
    return;
  }
  std::byte* cur = root_;
  while (true) {
    ++scan_steps_;
    TreeNode* c = tree_node(cur);
    if (tree_key_less(b, cur)) {
      if (c->left == nullptr) {
        c->left = b;
        n->parent = cur;
        return;
      }
      cur = c->left;
    } else {
      if (c->right == nullptr) {
        c->right = b;
        n->parent = cur;
        return;
      }
      cur = c->right;
    }
  }
}

void FreeIndex::tree_remove(std::byte* b) {
  TreeNode* n = tree_node(b);

  auto replace_in_parent = [&](std::byte* child) {
    if (n->parent == nullptr) {
      root_ = child;
    } else {
      TreeNode* p = tree_node(n->parent);
      (p->left == b ? p->left : p->right) = child;
    }
    if (child != nullptr) tree_node(child)->parent = n->parent;
  };

  if (n->left != nullptr && n->right != nullptr) {
    // Two children: splice in the in-order successor (min of right subtree).
    std::byte* succ = n->right;
    while (tree_node(succ)->left != nullptr) {
      ++scan_steps_;
      succ = tree_node(succ)->left;
    }
    TreeNode* s = tree_node(succ);
    // Detach successor (it has no left child).
    if (s->parent != b) {
      TreeNode* sp = tree_node(s->parent);
      sp->left = s->right;
      if (s->right != nullptr) tree_node(s->right)->parent = s->parent;
      s->right = n->right;
      tree_node(n->right)->parent = succ;
    }
    s->left = n->left;
    if (n->left != nullptr) tree_node(n->left)->parent = succ;
    replace_in_parent(succ);
    return;
  }
  replace_in_parent(n->left != nullptr ? n->left : n->right);
}

std::byte* FreeIndex::tree_take(std::size_t need, FitAlgorithm fit) {
  if (root_ == nullptr) return nullptr;
  std::byte* found = nullptr;
  if (fit == FitAlgorithm::kWorstFit) {
    std::byte* cur = root_;
    while (tree_node(cur)->right != nullptr) {
      ++scan_steps_;
      cur = tree_node(cur)->right;
    }
    if (size_of(cur) >= need) found = cur;
  } else {
    // Best/exact/first/next all resolve to "smallest block >= need" on a
    // size-keyed tree (first/next have no positional meaning here; the
    // constraint engine flags those pairings as linked decisions).
    std::byte* cur = root_;
    while (cur != nullptr) {
      ++scan_steps_;
      if (size_of(cur) >= need) {
        found = cur;
        cur = tree_node(cur)->left;
      } else {
        cur = tree_node(cur)->right;
      }
    }
  }
  if (found != nullptr) tree_remove(found);
  return found;
}

}  // namespace dmm::alloc

#ifndef DMM_ALLOC_BLOCK_LAYOUT_H
#define DMM_ALLOC_BLOCK_LAYOUT_H

#include <cstddef>
#include <cstdint>

#include "dmm/alloc/config.h"
#include "dmm/alloc/knobs.h"
#include "dmm/alloc/size_class.h"

namespace dmm::alloc {

/// Physical layout of a memory block as dictated by trees A3 (block tags)
/// and A4 (block recorded info).
///
/// A *block* spans [base, base + block_size):
///
///   base                       base+header_bytes              base+size
///    | header (0 or 8 bytes)    | payload ...        [footer] |
///
/// * The header word packs the block size (multiple of 8, so the low three
///   bits are free) with a status bit (bit 0), subject to what A4 records.
/// * The footer is the boundary tag enabling backward coalescing.  It is
///   only *written* while the block is free and lives in the last word of
///   the block, overlapping payload space of live blocks (the dlmalloc
///   boundary-tag optimisation) — so footers cost nothing on live blocks
///   and only raise the minimum viable free-block size.
/// * Free-list links (tree A1) also live in the payload of free blocks.
///
/// When A3 = none there is no in-band field at all; the owning pool must be
/// able to infer size and status some other way (fixed-size pool), which is
/// exactly the Fig. 3 interdependency.
class BlockLayout {
 public:
  static constexpr std::size_t kWord = sizeof(std::size_t);
  static constexpr std::size_t kStatusBit = 1;    ///< this block is free
  static constexpr std::size_t kPrevFreeBit = 2;  ///< preceding block is free
  static constexpr std::size_t kFlagMask = kStatusBit | kPrevFreeBit;

  BlockLayout() = default;

  /// Derives the layout from the A3/A4 decisions of @p cfg.
  static BlockLayout from(const DmmConfig& cfg) {
    const KnobView knobs(cfg);
    const BlockTags tags = knobs.block_tags();
    const RecordedInfo info = knobs.recorded_info();
    BlockLayout l;
    l.has_header_ =
        tags == BlockTags::kHeader || tags == BlockTags::kHeaderFooter;
    l.has_footer_ =
        tags == BlockTags::kFooter || tags == BlockTags::kHeaderFooter;
    l.records_size_ = info == RecordedInfo::kSize ||
                      info == RecordedInfo::kSizeAndStatus;
    l.records_status_ = info == RecordedInfo::kStatus ||
                        info == RecordedInfo::kSizeAndStatus;
    if (tags == BlockTags::kNone) {
      l.records_size_ = l.records_status_ = false;
    }
    return l;
  }

  [[nodiscard]] std::size_t header_bytes() const {
    return has_header_ ? kWord : 0;
  }
  /// Footer space reserved *inside free blocks only* (see class comment).
  [[nodiscard]] std::size_t footer_bytes() const {
    return has_footer_ ? kWord : 0;
  }
  [[nodiscard]] bool has_header() const { return has_header_; }
  [[nodiscard]] bool has_footer() const { return has_footer_; }
  [[nodiscard]] bool records_size() const { return records_size_ && has_header_; }
  [[nodiscard]] bool records_status() const {
    return records_status_ && has_header_;
  }

  /// Smallest block size (header + payload) that can later be threaded
  /// into a free structure needing @p link_bytes of in-payload links.
  [[nodiscard]] std::size_t min_block_size(std::size_t link_bytes) const {
    const std::size_t payload =
        align_up(link_bytes > kAlignment ? link_bytes : kAlignment) +
        footer_bytes();
    return align_up(header_bytes() + payload);
  }

  // ---- field access (all take the block base pointer) ----

  /// Writes the header word for a block of @p block_size with free/used
  /// status @p free and prev-block status @p prev_free (the dlmalloc-style
  /// bit that makes backward coalescing safe without reading into the
  /// predecessor's payload).  No-op when the layout has no header.
  void write_header(std::byte* block, std::size_t block_size, bool free,
                    bool prev_free = false) const {
    if (!has_header_) return;
    std::size_t word = records_size_ ? block_size : 0;
    if (records_status_) {
      if (free) word |= kStatusBit;
      if (prev_free) word |= kPrevFreeBit;
    }
    *reinterpret_cast<std::size_t*>(block) = word;
  }

  /// Block size recorded in the header (0 if the layout records none).
  [[nodiscard]] std::size_t read_size(const std::byte* block) const {
    if (!records_size()) return 0;
    return *reinterpret_cast<const std::size_t*>(block) & ~kFlagMask;
  }

  /// Free/used status from the header (false if not recorded).
  [[nodiscard]] bool read_free(const std::byte* block) const {
    if (!records_status()) return false;
    return (*reinterpret_cast<const std::size_t*>(block) & kStatusBit) != 0;
  }

  /// Prev-block free status from the header (false if not recorded).
  [[nodiscard]] bool read_prev_free(const std::byte* block) const {
    if (!records_status()) return false;
    return (*reinterpret_cast<const std::size_t*>(block) & kPrevFreeBit) != 0;
  }

  /// Updates only the prev-free bit of an existing header.
  void set_prev_free(std::byte* block, bool prev_free) const {
    if (!records_status()) return;
    auto* word = reinterpret_cast<std::size_t*>(block);
    *word = prev_free ? (*word | kPrevFreeBit) : (*word & ~kPrevFreeBit);
  }

  /// Writes the boundary footer (size copy) into the last word of a *free*
  /// block.  No-op when the layout has no footer.
  void write_footer(std::byte* block, std::size_t block_size) const {
    if (!has_footer_) return;
    *reinterpret_cast<std::size_t*>(block + block_size - kWord) = block_size;
  }

  /// Size of the free block that ends exactly at @p boundary (i.e. whose
  /// footer occupies [boundary-8, boundary)).  Only meaningful when the
  /// caller already knows the predecessor is free.
  [[nodiscard]] std::size_t read_footer_size(const std::byte* boundary) const {
    if (!has_footer_) return 0;
    return *reinterpret_cast<const std::size_t*>(boundary - kWord);
  }

  [[nodiscard]] std::byte* payload(std::byte* block) const {
    return block + header_bytes();
  }
  [[nodiscard]] const std::byte* payload(const std::byte* block) const {
    return block + header_bytes();
  }
  [[nodiscard]] std::byte* block_of(void* payload_ptr) const {
    return static_cast<std::byte*>(payload_ptr) - header_bytes();
  }
  [[nodiscard]] const std::byte* block_of(const void* payload_ptr) const {
    return static_cast<const std::byte*>(payload_ptr) - header_bytes();
  }

  /// Payload bytes available to the application in a *live* block of
  /// @p block_size (footer overlaps payload on live blocks).
  [[nodiscard]] std::size_t live_payload(std::size_t block_size) const {
    return block_size - header_bytes();
  }

  /// Total block size needed to serve a payload request of @p payload,
  /// also viable as a future free block with @p link_bytes links.
  [[nodiscard]] std::size_t block_size_for(std::size_t payload,
                                           std::size_t link_bytes) const {
    const std::size_t sz = align_up(header_bytes() + align_up(payload));
    const std::size_t min_sz = min_block_size(link_bytes);
    return sz < min_sz ? min_sz : sz;
  }

 private:
  bool has_header_ = false;
  bool has_footer_ = false;
  bool records_size_ = false;
  bool records_status_ = false;
};

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_BLOCK_LAYOUT_H

// Byte-range deltas between two released-state images — the replication
// diff for the read tier. An update epoch redraws only the dirty dyadic
// blocks inside an oracle's released sections, so the byte-level
// difference between the pre- and post-epoch images is a handful of
// contiguous runs. ComputeSectionDelta extracts those runs;
// ApplySectionDelta patches them into a replica's copy and proves the
// result against a CRC32C of the coordinator's post-epoch section, so a
// replica that applies the same delta stream holds bit-identical images.
//
// Deltas deliberately cover only in-place mutation: an update epoch never
// changes a release's shape (labels, section count, section sizes). A
// shape change is a FailedPrecondition from ComputeSectionDelta — the
// shipper's signal to fall back to a full SnapshotChunk instead.

#ifndef DPSP_STORE_SNAPSHOT_DELTA_H_
#define DPSP_STORE_SNAPSHOT_DELTA_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/distance_oracle.h"

namespace dpsp {
namespace store {

/// One contiguous run of changed bytes within a section.
struct SectionRange {
  uint64_t offset = 0;
  std::vector<uint8_t> bytes;
};

/// All changes one epoch made to one labeled section, plus the CRC32C of
/// the complete post-patch section so the applier can verify it
/// reconstructed exactly the shipper's bytes.
struct SectionPatch {
  std::string label;
  /// Size of the section both before and after (deltas never resize).
  uint64_t section_bytes = 0;
  uint32_t post_crc32c = 0;
  std::vector<SectionRange> ranges;
};

/// Computes the patches that turn `before` into `after`. Sections must
/// agree in label order, labels, and sizes; any shape change fails with
/// FailedPrecondition (ship a full image instead). Unchanged sections
/// produce no patch; a fully unchanged image produces an empty vector.
Result<std::vector<SectionPatch>> ComputeSectionDelta(
    std::span<const ReleasedSection> before,
    std::span<const ReleasedSection> after);

/// Applies `patches` to `image` in place, then verifies every patched
/// section against its post_crc32c. InvalidArgument on an unknown label,
/// size mismatch, out-of-bounds range, or checksum mismatch — after which
/// the image must be considered corrupt (the replica's cue to resync from
/// a full snapshot).
Status ApplySectionDelta(std::vector<ReleasedSection>& image,
                         std::span<const SectionPatch> patches);

/// Total changed-payload bytes the patches carry (the replication
/// byte-accounting that proves update epochs ship deltas, not images).
uint64_t SectionDeltaBytes(std::span<const SectionPatch> patches);

}  // namespace store
}  // namespace dpsp

#endif  // DPSP_STORE_SNAPSHOT_DELTA_H_

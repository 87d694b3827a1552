/**
 * @file
 * A set-associative LRU tag array, reused by the L1, the L2 and the CCWS
 * victim-tag arrays.
 */

#ifndef EQ_MEM_TAG_ARRAY_HH
#define EQ_MEM_TAG_ARRAY_HH

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/types.hh"
#include "mem/mem_access.hh"
#include "sim/state.hh"

namespace equalizer
{

/**
 * Tag array with true-LRU replacement.
 *
 * Each line optionally remembers an "owner" (the warp that brought it in),
 * which the CCWS baseline uses to attribute evictions.
 */
class TagArray
{
  public:
    /** Result of an insertion. */
    struct Eviction
    {
        Addr lineAddr;  ///< evicted line address
        int owner;      ///< owner recorded at insertion/last touch
        bool dirty;     ///< written since it was installed
    };

    /**
     * @param sets Number of sets (power of two).
     * @param ways Associativity.
     * @param line_bytes Line size for set indexing.
     */
    TagArray(int sets, int ways, Addr line_bytes = lineBytes);

    /**
     * Probe for a line; updates LRU order (and owner) on hit.
     * @return true on hit.
     */
    bool lookup(Addr line_addr, int owner = -1);

    /** Probe without changing any replacement state. */
    bool probe(Addr line_addr) const;

    /**
     * Install a line (evicting LRU if the set is full). A line already
     * present is touched instead. @p dirty is ORed into the line's bit,
     * so a clean fill never cleans a written line.
     *
     * @return The eviction, when one occurred.
     */
    std::optional<Eviction> insert(Addr line_addr, int owner = -1,
                                   bool dirty = false);

    /** Remove a line if present. @return true when it was present. */
    bool invalidate(Addr line_addr);

    /** Remove every line. */
    void invalidateAll();

    int sets() const { return sets_; }
    int ways() const { return ways_; }

    /** Total lines currently valid. */
    int validCount() const;

    void
    visitState(StateVisitor &v)
    {
        v.expectMatch(sets_, "tag array sets");
        v.expectMatch(ways_, "tag array ways");
        v.expectMatch(lineBytes_, "tag array line size");
        v.field(useClock_);
        v.field(lines_);
    }

  private:
    /// Saved as raw bytes in bulk, so every byte is a named field.
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        int owner = -1;
        bool valid = false;
        bool dirty = false;
        std::uint16_t spare = 0; ///< fills what would be padding
    };
    static_assert(sizeof(Line) == 24);
    static_assert(std::has_unique_object_representations_v<Line>);

    int setIndex(Addr line_addr) const;
    Addr tagOf(Addr line_addr) const;

    int sets_;
    int ways_;
    Addr lineBytes_;
    std::uint64_t useClock_ = 0;
    std::vector<Line> lines_; ///< sets_ * ways_, row-major by set
};

} // namespace equalizer

#endif // EQ_MEM_TAG_ARRAY_HH

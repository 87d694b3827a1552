#include "tag_array.hh"

#include "common/log.hh"

namespace equalizer
{

TagArray::TagArray(int sets, int ways, Addr line_bytes)
    : sets_(sets), ways_(ways), lineBytes_(line_bytes),
      lines_(static_cast<std::size_t>(sets) * ways)
{
    EQ_ASSERT(sets > 0 && (sets & (sets - 1)) == 0,
              "tag array needs a power-of-two set count, got ", sets);
    EQ_ASSERT(ways > 0, "tag array needs positive associativity");
}

int
TagArray::setIndex(Addr line_addr) const
{
    return static_cast<int>((line_addr / lineBytes_) &
                            static_cast<Addr>(sets_ - 1));
}

Addr
TagArray::tagOf(Addr line_addr) const
{
    return line_addr / lineBytes_ / static_cast<Addr>(sets_);
}

bool
TagArray::lookup(Addr line_addr, int owner)
{
    const int set = setIndex(line_addr);
    const Addr tag = tagOf(line_addr);
    for (int w = 0; w < ways_; ++w) {
        Line &line = lines_[static_cast<std::size_t>(set) * ways_ + w];
        if (line.valid && line.tag == tag) {
            line.lastUse = ++useClock_;
            if (owner >= 0)
                line.owner = owner;
            return true;
        }
    }
    return false;
}

bool
TagArray::probe(Addr line_addr) const
{
    const int set = setIndex(line_addr);
    const Addr tag = tagOf(line_addr);
    for (int w = 0; w < ways_; ++w) {
        const Line &line = lines_[static_cast<std::size_t>(set) * ways_ + w];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

std::optional<TagArray::Eviction>
TagArray::insert(Addr line_addr, int owner, bool dirty)
{
    const int set = setIndex(line_addr);
    const Addr tag = tagOf(line_addr);

    Line *victim = nullptr;
    for (int w = 0; w < ways_; ++w) {
        Line &line = lines_[static_cast<std::size_t>(set) * ways_ + w];
        if (line.valid && line.tag == tag) {
            // Already present (e.g., two MSHR fills raced); just touch.
            line.lastUse = ++useClock_;
            if (owner >= 0)
                line.owner = owner;
            line.dirty = line.dirty || dirty;
            return std::nullopt;
        }
        if (!line.valid) {
            if (!victim || victim->valid)
                victim = &line;
        } else if (!victim ||
                   (victim->valid && line.lastUse < victim->lastUse)) {
            victim = &line;
        }
    }

    std::optional<Eviction> evicted;
    if (victim->valid) {
        const Addr victim_line =
            (victim->tag * static_cast<Addr>(sets_) +
             static_cast<Addr>(set)) * lineBytes_;
        evicted = Eviction{victim_line, victim->owner, victim->dirty};
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = tag;
    victim->owner = owner;
    victim->lastUse = ++useClock_;
    return evicted;
}

bool
TagArray::invalidate(Addr line_addr)
{
    const int set = setIndex(line_addr);
    const Addr tag = tagOf(line_addr);
    for (int w = 0; w < ways_; ++w) {
        Line &line = lines_[static_cast<std::size_t>(set) * ways_ + w];
        if (line.valid && line.tag == tag) {
            line.valid = false;
            return true;
        }
    }
    return false;
}

void
TagArray::invalidateAll()
{
    for (auto &line : lines_)
        line.valid = false;
}

int
TagArray::validCount() const
{
    int count = 0;
    for (const auto &line : lines_)
        count += line.valid ? 1 : 0;
    return count;
}

} // namespace equalizer

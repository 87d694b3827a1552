/**
 * @file
 * The StateVisitor serialization interface.
 *
 * Every stateful component implements visitState(StateVisitor &), naming
 * its members through the same code path for saving and loading (the
 * gem5 SERIALIZE / boost-archive idiom). Two visitors exist: a buffer
 * writer and a buffer reader. The buffer carries a small header (magic,
 * format version, configuration fingerprint) followed by flat sections,
 * each framed as
 *
 *   u32 tag-length | tag | u32 section-version | u64 payload-length |
 *   payload bytes  | u64 FNV-1a checksum of the payload
 *
 * Sections may nest; an inner section's frame is part of the outer
 * payload. Any mismatch on load (tag, version, length, checksum,
 * fingerprint) raises fatal(): a checkpoint is only restorable into a
 * simulator built with the same configuration (docs/SNAPSHOT.md).
 */

#ifndef EQ_SIM_STATE_HH
#define EQ_SIM_STATE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace equalizer
{

struct GpuConfig;
struct PowerConfig;

/**
 * Version of the checkpoint container format (header + section framing).
 * Bump ONLY when the framing itself changes; per-section layout changes
 * bump the section's own version instead (see docs/SNAPSHOT.md for the
 * bump policy).
 */
inline constexpr std::uint32_t checkpointFormatVersion = 1;

/** Bytes of the smallest framed section: empty tag, empty payload. */
inline constexpr std::size_t minSectionBytes =
    2 * sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);

class StateVisitor;

namespace detail
{

/** Detects a member `void visitState(StateVisitor &)`. */
template <typename T, typename = void>
struct HasVisitState : std::false_type
{
};

template <typename T>
struct HasVisitState<T,
                     std::void_t<decltype(std::declval<T &>().visitState(
                         std::declval<StateVisitor &>()))>>
    : std::true_type
{
};

} // namespace detail

/**
 * Direction-agnostic serialization visitor.
 *
 * Components call field(member) for every piece of architectural state;
 * the same statements write on save and overwrite on load, so the two
 * directions cannot drift apart.
 */
class StateVisitor
{
  public:
    virtual ~StateVisitor() = default;

    /** True when writing a checkpoint, false when restoring one. */
    virtual bool saving() const = 0;

    /**
     * Open a framed section. On load the tag and the version must both
     * match exactly: no component migrates an older layout.
     */
    virtual void beginSection(const char *tag, std::uint32_t version) = 0;

    /** Close the innermost section (verifies length and checksum). */
    virtual void endSection() = 0;

    /**
     * Loading only: discard the unread remainder of the innermost
     * section (used to drop state of a component the restored instance
     * does not have, e.g. a different controller). No-op when saving.
     */
    virtual void skipRemainingSection() = 0;

    /**
     * Loading only: fatal() unless @p n elements of at least
     * @p min_bytes serialized bytes each fit in what is left of the
     * innermost section. No-op when saving.
     */
    virtual void checkCount(std::uint64_t n, std::size_t min_bytes) = 0;

    /** Raw fixed-size payload — the primitive everything reduces to. */
    virtual void bytes(void *data, std::size_t n) = 0;

    /**
     * Serialize one member. Types providing visitState() recurse;
     * anything else must be trivially copyable and moves as raw bytes.
     */
    template <typename T>
    void
    field(T &v)
    {
        if constexpr (detail::HasVisitState<T>::value) {
            v.visitState(*this);
        } else {
            static_assert(std::is_trivially_copyable_v<T>,
                          "type needs a visitState() or an overload");
            bytes(&v, sizeof(T));
        }
    }

    /** field() each member in turn: a struct's visitState in one call. */
    template <typename... Ts>
    void
    fields(Ts &...members)
    {
        (field(members), ...);
    }

    /**
     * Serialize a container's element count. On load the count is
     * checked against the section's remaining bytes (checkCount()), so
     * a forged count never reaches a resize().
     */
    std::size_t
    count(std::size_t n, std::size_t min_bytes)
    {
        std::uint64_t c = n;
        field(c);
        checkCount(c, min_bytes);
        return static_cast<std::size_t>(c);
    }

    void
    field(std::string &s)
    {
        const std::size_t n = count(s.size(), 1);
        if (!saving())
            s.resize(n);
        if (n > 0)
            bytes(s.data(), n);
    }

    /** One raw block unless the elements need their own visitState(). */
    template <typename T>
    void
    field(std::vector<T> &vec)
    {
        constexpr bool raw = std::is_trivially_copyable_v<T> &&
                             !detail::HasVisitState<T>::value;
        const std::size_t n = count(vec.size(), raw ? sizeof(T) : 1);
        if (!saving())
            vec.resize(n);
        if constexpr (raw) {
            if (!vec.empty())
                bytes(vec.data(), vec.size() * sizeof(T));
        } else {
            for (auto &e : vec)
                field(e);
        }
    }

    void
    field(std::vector<bool> &vec)
    {
        const std::size_t n = count(vec.size(), 1);
        if (!saving())
            vec.assign(n, false);
        for (std::size_t i = 0; i < vec.size(); ++i) {
            std::uint8_t b = vec[i] ? 1 : 0;
            field(b);
            if (!saving())
                vec[i] = b != 0;
        }
    }

    template <typename T>
    void
    field(std::optional<T> &o)
    {
        std::uint8_t has = o.has_value() ? 1 : 0;
        field(has);
        if (!saving()) {
            if (has && !o.has_value())
                o.emplace();
            else if (!has)
                o.reset();
        }
        if (o.has_value())
            field(*o);
    }

    /** std::map with string keys (canonical: maps iterate sorted). */
    template <typename V>
    void
    field(std::map<std::string, V> &m)
    {
        // Each entry holds at least its key's length.
        const std::size_t n = count(m.size(), sizeof(std::uint64_t));
        if (saving()) {
            for (auto &[key, value] : m) {
                std::string k = key;
                field(k);
                field(value);
            }
        } else {
            m.clear();
            for (std::size_t i = 0; i < n; ++i) {
                std::string k;
                field(k);
                V value{};
                field(value);
                m.emplace(std::move(k), std::move(value));
            }
        }
    }

    /**
     * Round-trip a configuration-derived value and fatal() on load when
     * the stored value differs from the live one — the per-component
     * compatibility check backing the header fingerprint.
     */
    template <typename T>
    void
    expectMatch(const T &live, const char *what)
    {
        T v = live;
        field(v);
        if (!saving() && !(v == live))
            fatal("checkpoint incompatible with this configuration: ",
                  what, " differs");
    }
};

/** StateVisitor that appends to an in-memory buffer. */
class BufferStateWriter : public StateVisitor
{
  public:
    /** @param config_fingerprint Hash of the live configuration. */
    explicit BufferStateWriter(std::uint64_t config_fingerprint);

    bool saving() const override { return true; }
    void beginSection(const char *tag, std::uint32_t version) override;
    void endSection() override;
    void skipRemainingSection() override {}
    void checkCount(std::uint64_t, std::size_t) override {}
    void bytes(void *data, std::size_t n) override;

    /** Finalize (all sections must be closed) and yield the buffer. */
    std::vector<std::uint8_t> take();

  private:
    struct Frame
    {
        std::string tag;
        std::size_t lengthOffset; ///< where the u64 payload length lives
        std::size_t payloadStart;
    };

    void raw(const void *p, std::size_t n);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);

    std::vector<std::uint8_t> buf_;
    std::vector<Frame> frames_;
};

/** StateVisitor that consumes a buffer written by BufferStateWriter. */
class BufferStateReader : public StateVisitor
{
  public:
    /**
     * Parses and validates the header.
     *
     * @param buf The checkpoint bytes.
     * @param expected_fingerprint Fingerprint of the live configuration;
     *        fatal() when it differs from the stored one.
     */
    BufferStateReader(std::vector<std::uint8_t> buf,
                      std::uint64_t expected_fingerprint);

    bool saving() const override { return false; }
    void beginSection(const char *tag, std::uint32_t version) override;
    void endSection() override;
    void skipRemainingSection() override;
    void checkCount(std::uint64_t n, std::size_t min_bytes) override;
    void bytes(void *data, std::size_t n) override;

    /** Fingerprint stored in the checkpoint header. */
    std::uint64_t fingerprint() const { return fingerprint_; }

    /** Verify that every byte of the buffer was consumed. */
    void finish() const;

  private:
    struct Frame
    {
        std::string tag;
        std::size_t payloadStart;
        std::size_t payloadEnd;
    };

    void need(std::size_t n) const;
    std::uint32_t getU32();
    std::uint64_t getU64();

    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::uint64_t fingerprint_ = 0;
    std::vector<Frame> frames_;
};

/** FNV-1a over a byte range (the per-section checksum). */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t n);

/**
 * Order-sensitive hash of every configuration field that affects the
 * simulated machine's structure. Stored in the checkpoint header and
 * compared on load: restoring into a differently-configured GpuTop is a
 * user error.
 */
std::uint64_t configFingerprint(const GpuConfig &gpu,
                                const PowerConfig &power);

/** Write a checkpoint buffer to a file; fatal() on I/O failure. */
void writeCheckpointFile(const std::string &path,
                         const std::vector<std::uint8_t> &buf);

/** Read a whole checkpoint file; fatal() on I/O failure. */
std::vector<std::uint8_t> readCheckpointFile(const std::string &path);

} // namespace equalizer

#endif // EQ_SIM_STATE_HH

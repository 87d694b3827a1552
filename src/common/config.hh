/**
 * @file
 * String key/value configuration with typed accessors.
 *
 * Structured per-subsystem config structs (GpuConfig, PowerConfig, ...) are
 * the primary configuration mechanism; Config exists for command-line style
 * overrides in examples and benches ("key=value" pairs).
 */

#ifndef EQ_COMMON_CONFIG_HH
#define EQ_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace equalizer
{

/**
 * One documented runtime knob: the canonical snake_case key, its
 * one-line description, and any deprecated spellings that still parse
 * (with a warning pointing at the canonical name).
 */
struct Knob
{
    std::string name; ///< canonical snake_case key
    std::string doc;  ///< one-line description for usage output
    std::vector<std::string> aliases; ///< deprecated spellings
};

/** A flat dictionary of string options with typed getters. */
class Config
{
  public:
    Config() = default;

    /**
     * Parse "key=value" tokens against a knob registry; a token
     * without '=' raises fatal(). Every key is canonicalized (hyphens
     * become underscores, registered aliases map to their knob's name,
     * both with a deprecation warn()), then validated against the
     * registry.
     * An unregistered key fatal()s, suggesting the closest registered
     * keys ("did you mean"), so a typo like "kernal=lbm" fails loudly
     * instead of being silently ignored. The returned Config only
     * contains canonical keys.
     */
    static Config fromArgs(const std::vector<std::string> &args,
                           const std::vector<Knob> &knobs);

    /** One "  name  doc [aliases: ...]" usage line per knob. */
    static std::string knobUsage(const std::vector<Knob> &knobs);

    /** Set (or overwrite) an option. */
    void set(const std::string &key, const std::string &value);

    bool contains(const std::string &key) const;

    /** Typed getters returning default_value when the key is absent. */
    std::string getString(const std::string &key,
                          const std::string &default_value) const;
    std::int64_t getInt(const std::string &key,
                        std::int64_t default_value) const;
    double getDouble(const std::string &key, double default_value) const;
    bool getBool(const std::string &key, bool default_value) const;

    /**
     * @p text as a whole decimal integer; anything else ("two", "4x",
     * "") fatal()s naming option @p key. getInt parses with this.
     */
    static std::int64_t parseInt(const std::string &key,
                                 const std::string &text);

    /**
     * A comma-separated list (the value, or @p default_value when the
     * key is absent), with empty entries dropped: "a,,b," -> {a, b}.
     */
    std::vector<std::string> getList(const std::string &key,
                                     const std::string &default_value) const;

    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }

  private:
    std::optional<std::string> find(const std::string &key) const;

    std::map<std::string, std::string> entries_;
};

} // namespace equalizer

#endif // EQ_COMMON_CONFIG_HH

#include "config.hh"

#include <algorithm>
#include <cctype>

#include "log.hh"

namespace equalizer
{

namespace
{

/** Classic dynamic-programming edit distance (small strings only). */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t subst =
                diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
        }
    }
    return row[b.size()];
}

/** Registered keys close enough to @p key to be plausible typos. */
std::vector<std::string>
closeMatches(const std::string &key,
             const std::vector<std::string> &known_keys)
{
    std::vector<std::string> out;
    for (const auto &k : known_keys) {
        const bool prefix =
            k.size() > key.size() && k.compare(0, key.size(), key) == 0;
        if (prefix || editDistance(key, k) <= 2)
            out.push_back(k);
    }
    return out;
}

} // namespace

Config
Config::fromArgs(const std::vector<std::string> &args,
                 const std::vector<Knob> &knobs)
{
    std::vector<std::string> names;
    names.reserve(knobs.size());
    for (const auto &k : knobs)
        names.push_back(k.name);

    // Map every raw key to its canonical knob name before validating,
    // warning once per deprecated spelling actually used.
    Config cfg;
    for (const auto &arg : args) {
        auto pos = arg.find('=');
        if (pos == std::string::npos || pos == 0)
            fatal("malformed option '", arg, "', expected key=value");
        const std::string raw = arg.substr(0, pos);
        const std::string value = arg.substr(pos + 1);

        std::string key = raw;
        std::replace(key.begin(), key.end(), '-', '_');
        auto canonical = [&knobs, &key]() -> const Knob * {
            for (const auto &k : knobs) {
                if (k.name == key)
                    return &k;
                for (const auto &a : k.aliases)
                    if (a == key)
                        return &k;
            }
            return nullptr;
        }();

        if (!canonical) {
            std::string msg = "unknown option '" + raw + "'";
            const auto close = closeMatches(key, names);
            if (!close.empty()) {
                msg += "; did you mean ";
                for (std::size_t i = 0; i < close.size(); ++i)
                    msg += (i ? ", '" : "'") + close[i] + "'";
            } else {
                msg += "; known options:";
                for (const auto &n : names)
                    msg += " " + n;
            }
            fatal(msg);
        }
        if (raw != canonical->name) {
            warn("option '", raw, "' is a deprecated spelling of '",
                 canonical->name, "'");
        }
        cfg.set(canonical->name, value);
    }
    return cfg;
}

std::string
Config::knobUsage(const std::vector<Knob> &knobs)
{
    std::size_t width = 0;
    for (const auto &k : knobs)
        width = std::max(width, k.name.size());
    std::string out;
    for (const auto &k : knobs) {
        out += "  " + k.name +
               std::string(width - k.name.size() + 2, ' ') + k.doc;
        if (!k.aliases.empty()) {
            out += " [aliases:";
            for (const auto &a : k.aliases)
                out += " " + a;
            out += "]";
        }
        out += "\n";
    }
    return out;
}

void
Config::set(const std::string &key, const std::string &value)
{
    entries_[key] = value;
}

bool
Config::contains(const std::string &key) const
{
    return entries_.count(key) > 0;
}

std::optional<std::string>
Config::find(const std::string &key) const
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return std::nullopt;
    return it->second;
}

std::string
Config::getString(const std::string &key,
                  const std::string &default_value) const
{
    return find(key).value_or(default_value);
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t default_value) const
{
    auto v = find(key);
    if (!v)
        return default_value;
    try {
        return std::stoll(*v);
    } catch (...) {
        fatal("option '", key, "' has non-integer value '", *v, "'");
    }
}

double
Config::getDouble(const std::string &key, double default_value) const
{
    auto v = find(key);
    if (!v)
        return default_value;
    try {
        return std::stod(*v);
    } catch (...) {
        fatal("option '", key, "' has non-numeric value '", *v, "'");
    }
}

bool
Config::getBool(const std::string &key, bool default_value) const
{
    auto v = find(key);
    if (!v)
        return default_value;
    std::string s = *v;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (s == "1" || s == "true" || s == "yes" || s == "on")
        return true;
    if (s == "0" || s == "false" || s == "no" || s == "off")
        return false;
    fatal("option '", key, "' has non-boolean value '", *v, "'");
}

std::vector<std::string>
Config::getList(const std::string &key,
                const std::string &default_value) const
{
    const std::string csv = getString(key, default_value);
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        const std::size_t comma = std::min(csv.find(',', pos), csv.size());
        if (comma > pos)
            out.push_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

} // namespace equalizer

// Shared environment-variable parsing for the HWST_* switches
// (HWST_TIER, HWST_ISOLATE, HWST_SENTINEL, ...). One parser so every
// switch accepts the same vocabulary and a typo'd value can never
// silently flip a mode: the old per-site `e[0] != '0'` treated a
// switch set to `off` as *on*.
#pragma once

#include <cctype>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>

namespace hwst::common {

/// Parse a boolean flag value, case-insensitively:
/// "0"/"false"/"off"/"no" -> false, "1"/"true"/"on"/"yes" -> true,
/// anything else -> nullopt.
inline std::optional<bool> parse_bool_flag(std::string_view s)
{
    std::string t;
    t.reserve(s.size());
    for (const char c : s)
        t.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (t == "0" || t == "false" || t == "off" || t == "no") return false;
    if (t == "1" || t == "true" || t == "on" || t == "yes") return true;
    return std::nullopt;
}

/// Emit `msg` to stderr at most once per distinct `key` for the whole
/// process. Shared by every env diagnostic so a campaign spawning
/// thousands of Machines warns exactly once per misconfiguration.
inline void warn_once(const std::string& key, const std::string& msg)
{
    static std::mutex mutex;
    static std::set<std::string> warned;
    const std::lock_guard lock{mutex};
    if (warned.insert(key).second) std::cerr << msg;
}

/// Read `name` as a boolean flag. Unset -> nullopt (caller keeps its
/// default); set to an unrecognized value -> nullopt plus a
/// once-per-variable stderr diagnostic.
inline std::optional<bool> env_flag(const char* name)
{
    const char* e = std::getenv(name);
    if (!e) return std::nullopt;
    const auto v = parse_bool_flag(e);
    if (!v)
        warn_once(name, std::string{"[env] "} + name + "='" + e +
                            "' is not a boolean "
                            "(0/1/on/off/true/false/yes/no); ignoring\n");
    return v;
}

/// Parse a choice flag value against `allowed` (case-insensitive).
/// Returns the index of the match, or nullopt.
inline std::optional<unsigned>
parse_choice_flag(std::string_view s,
                  std::initializer_list<std::string_view> allowed)
{
    std::string t;
    t.reserve(s.size());
    for (const char c : s)
        t.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    unsigned i = 0;
    for (const std::string_view a : allowed) {
        if (t == a) return i;
        ++i;
    }
    return std::nullopt;
}

/// Read `name` as a choice among `allowed` (e.g. HWST_TIER over
/// {"interp","dbt","jit"}). Unset -> nullopt; set to an unrecognized
/// value -> nullopt plus a once-per-variable stderr diagnostic listing
/// the vocabulary.
inline std::optional<unsigned>
env_choice(const char* name, std::initializer_list<std::string_view> allowed)
{
    const char* e = std::getenv(name);
    if (!e) return std::nullopt;
    const auto v = parse_choice_flag(e, allowed);
    if (!v) {
        std::string vocab;
        for (const std::string_view a : allowed) {
            if (!vocab.empty()) vocab += '/';
            vocab += a;
        }
        warn_once(name, std::string{"[env] "} + name + "='" + e +
                            "' is not one of " + vocab + "; ignoring\n");
    }
    return v;
}

} // namespace hwst::common

#include "util/flags.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "util/strings.hpp"

namespace ovp::util {

namespace {

bool isOneOf(std::string_view value, std::string_view words) {
  while (true) {
    const std::size_t bar = words.find('|');
    if (value == words.substr(0, bar)) return true;
    if (bar == std::string_view::npos) return false;
    words.remove_prefix(bar + 1);
  }
}

/// True when `value` (none for a bare --name) fits `flag`'s kind.
bool fits(const Flag& flag, bool bare, std::string_view value) {
  std::int64_t i = 0;
  double d = 0.0;
  switch (flag.kind) {
    case FlagKind::Switch:
      return bare || isOneOf(value, "0|1|true|false|yes|no");
    case FlagKind::Int:
      return !bare && parseInt(value, i) && i >= flag.min;
    case FlagKind::Number:
      return !bare && parseDouble(value, d);
    case FlagKind::Text:
      return !bare || !flag.bare.empty();
    case FlagKind::OneOf:
      return !bare && isOneOf(value, flag.arg);
  }
  return false;
}

/// The usage column of `flag`: --name, --name=ARG or --name[=ARG].
std::string synopsis(const Flag& flag) {
  std::string out = "--";
  out += flag.name;
  if (flag.kind == FlagKind::Switch) return out;
  out += flag.bare.empty() ? "=" : "[=";
  out += flag.arg;
  if (!flag.bare.empty()) out += ']';
  return out;
}

/// What the usage line and a rejection add after `flag`: its bound, its
/// bare value, or for a switch the values it takes.
std::string constraint(const Flag& flag) {
  std::string out;
  if (flag.kind == FlagKind::Switch) out = " [=0|1|true|false|yes|no]";
  if (flag.kind == FlagKind::Int && flag.min != kAnyInt) {
    out = " [";
    out += flag.arg;
    out += " >= ";
    out += std::to_string(flag.min);
    out += ']';
  }
  if (!flag.bare.empty()) {
    out = " [bare: ";
    out += flag.bare;
    out += ']';
  }
  return out;
}

}  // namespace

std::string usage(const Cli& cli) {
  std::string out = "usage: ";
  out += cli.usage;
  out += cli.flags.empty() ? "\n" : " [flags]\n";
  out += cli.about;
  out += "\n\n";
  // Help lines start in column 32; a longer flag pushes its help onto the
  // next line.
  const auto line = [&out](const std::string& col, std::string_view help,
                           const std::string& tail) {
    out += "  ";
    out += col;
    if (col.size() > 28) {
      out += '\n';
      out.append(32, ' ');
    } else {
      out.append(30 - col.size(), ' ');
    }
    out += help;
    out += tail;
    out += '\n';
  };
  for (const Flag& flag : cli.flags) {
    line(synopsis(flag), flag.help,
         flag.kind == FlagKind::Switch ? "" : constraint(flag));
  }
  line("-h, --help", "print this help and exit", "");
  return out;
}

bool Flags::parse(int argc, char** argv, const Cli& cli) {
  declared_flags_ = cli.flags;
  declared_ = true;
  return parse(argc, argv);
}

Flags Flags::parseOrExit(int argc, char** argv, const Cli& cli) {
  Flags flags;
  if (!flags.parse(argc, argv, cli)) std::exit(2);
  if (flags.helpRequested()) {
    std::fputs(usage(cli).c_str(), stdout);
    std::exit(0);
  }
  return flags;
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      help_ = true;
      continue;
    }
    if (!startsWith(arg, "--")) {
      std::fprintf(stderr, "unrecognized argument: %s\n", argv[i]);
      return false;
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    const bool bare = eq == std::string_view::npos;
    const std::string_view name = bare ? arg : arg.substr(0, eq);
    if (declared_) {
      const auto flag =
          std::find_if(declared_flags_.begin(), declared_flags_.end(),
                       [&](const Flag& f) { return f.name == name; });
      if (flag == declared_flags_.end()) {
        std::fprintf(stderr, "unknown flag: %s (see --help)\n", argv[i]);
        return false;
      }
      if (!fits(*flag, bare, bare ? "" : arg.substr(eq + 1))) {
        std::fprintf(stderr, "%s: want %s%s\n", argv[i],
                     synopsis(*flag).c_str(), constraint(*flag).c_str());
        return false;
      }
    }
    // Stored as text, a bare flag as "true": the readers convert.
    if (bare) {
      values_[std::string(arg)] = "true";
    } else {
      values_[std::string(name)] = std::string(arg.substr(eq + 1));
    }
  }
  return true;
}

const Flag* Flags::declaration(std::string_view name) const {
  for (const Flag& flag : declared_flags_) {
    if (flag.name == name) return &flag;
  }
  assert(!declared_ && "read of a flag the binary did not declare");
  return nullptr;
}

std::int64_t Flags::getInt(std::string_view name, std::int64_t fallback) const {
  (void)declaration(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::int64_t v = 0;
  return parseInt(it->second, v) ? v : fallback;
}

double Flags::getDouble(std::string_view name, double fallback) const {
  (void)declaration(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double v = 0.0;
  return parseDouble(it->second, v) ? v : fallback;
}

std::string Flags::getString(std::string_view name,
                             std::string_view fallback) const {
  const Flag* flag = declaration(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return std::string(fallback);
  if (flag != nullptr && !flag->bare.empty() && it->second == "true") {
    return std::string(flag->bare);
  }
  return it->second;
}

bool Flags::getBool(std::string_view name, bool fallback) const {
  (void)declaration(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool Flags::has(std::string_view name) const {
  (void)declaration(name);
  return values_.contains(name);
}

}  // namespace ovp::util

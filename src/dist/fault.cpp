#include "dist/fault.h"

#include <cstdlib>
#include <vector>

#include "support/check.h"

namespace apa::dist {
namespace {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string trim(const std::string& text) {
  const std::size_t first = text.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  const std::size_t last = text.find_last_not_of(" \t");
  return text.substr(first, last - first + 1);
}

long parse_long(const std::string& field, const std::string& clause) {
  APA_CHECK_MSG(!field.empty(), "fault clause '" << clause << "': empty number");
  char* end = nullptr;
  const long value = std::strtol(field.c_str(), &end, 10);
  APA_CHECK_MSG(end != nullptr && *end == '\0' && value >= 0,
                "fault clause '" << clause << "': bad number '" << field << "'");
  return value;
}

}  // namespace

DistFaultPolicy DistFaultPolicy::parse(const std::string& spec) {
  DistFaultPolicy policy;
  if (spec.empty()) return policy;
  for (const std::string& raw : split(spec, ',')) {
    const std::string clause = trim(raw);
    if (clause.empty()) continue;
    const std::size_t at = clause.find('@');
    APA_CHECK_MSG(at != std::string::npos,
                  "fault clause '" << clause << "': expected NAME@ARGS");
    const std::string name = clause.substr(0, at);
    const std::vector<std::string> args = split(clause.substr(at + 1), ':');
    if (name == "kill") {
      APA_CHECK_MSG(args.size() == 2, "kill@RANK:STEP — got '" << clause << "'");
      policy.kill_rank = static_cast<int>(parse_long(args[0], clause));
      policy.kill_step = parse_long(args[1], clause);
    } else if (name == "corrupt") {
      APA_CHECK_MSG(args.size() == 2, "corrupt@RANK:STEP — got '" << clause << "'");
      policy.corrupt_rank = static_cast<int>(parse_long(args[0], clause));
      policy.corrupt_step = parse_long(args[1], clause);
    } else if (name == "corrupt-shard") {
      APA_CHECK_MSG(args.size() == 2,
                    "corrupt-shard@RANK:STEP — got '" << clause << "'");
      policy.corrupt_shard_rank = static_cast<int>(parse_long(args[0], clause));
      policy.corrupt_shard_step = parse_long(args[1], clause);
    } else if (name == "delay") {
      APA_CHECK_MSG(args.size() == 3,
                    "delay@RANK:STEP:MILLIS — got '" << clause << "'");
      policy.delay_rank = static_cast<int>(parse_long(args[0], clause));
      policy.delay_step = parse_long(args[1], clause);
      policy.delay_s = static_cast<double>(parse_long(args[2], clause)) * 1e-3;
    } else {
      APA_FAIL(ErrorCode::kPrecondition,
               "unknown fault '" << name << "' in clause '" << clause
                                 << "' (kill, corrupt, corrupt-shard, "
                                    "delay)");
    }
  }
  return policy;
}

}  // namespace apa::dist

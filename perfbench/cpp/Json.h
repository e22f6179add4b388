// Minimal JSON emission (the benchmark writes JSON, it never parses it)
// and the golden-value file reader.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// Full-precision number; non-finite values become null.
std::string json_number(double v);
std::string json_string(std::string_view s);

// Insertion-ordered object.
class JsonObject {
 public:
  JsonObject& num(std::string key, double v);
  JsonObject& count(std::string key, std::uint64_t v);
  JsonObject& flag(std::string key, bool v);
  JsonObject& text(std::string key, std::string_view v);
  JsonObject& object(std::string key, const JsonObject& v);
  JsonObject& raw(std::string key, std::string json);
  bool empty() const noexcept { return items_.empty(); }
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

// Golden file: one "<workload> <label> <value>" triple per line, '#'
// comments. Values are written with 17 significant digits.
using Golden = std::map<std::string, std::vector<std::pair<std::string, double>>>;
Golden read_golden(const std::string& path);
void write_golden(const std::string& path, const Golden& golden);

}  // namespace perfbench

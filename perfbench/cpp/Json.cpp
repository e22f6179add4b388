#include "Json.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::num(std::string key, double v) {
  return raw(std::move(key), json_number(v));
}
JsonObject& JsonObject::count(std::string key, std::uint64_t v) {
  return raw(std::move(key), std::to_string(v));
}
JsonObject& JsonObject::flag(std::string key, bool v) {
  return raw(std::move(key), v ? "true" : "false");
}
JsonObject& JsonObject::text(std::string key, std::string_view v) {
  return raw(std::move(key), json_string(v));
}
JsonObject& JsonObject::object(std::string key, const JsonObject& v) {
  return raw(std::move(key), v.str());
}
JsonObject& JsonObject::raw(std::string key, std::string json) {
  items_.emplace_back(std::move(key), std::move(json));
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(items_[i].first) + ": " + items_[i].second;
  }
  return out + "}";
}

Golden read_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  Golden g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, label, value;
    if (!(ls >> workload >> label >> value))
      throw std::runtime_error("malformed golden line: " + line);
    g[workload].emplace_back(label, std::stod(value));
  }
  return g;
}

void write_golden(const std::string& path, const Golden& golden) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write golden file " + path);
  out << "# Simulated outputs of the reference ops (seed 1); see NOTES.md.\n";
  char buf[32];
  for (const auto& [workload, entries] : golden)
    for (const auto& [label, value] : entries) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out << workload << ' ' << label << ' ' << buf << '\n';
    }
}

}  // namespace perfbench

#include "io/sweep_io.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "io/csv.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace sysgo::io {

namespace {

using util::format_full;

const std::vector<std::string> kColumns{
    "family", "d",        "D",            "mode",         "task",
    "s",      "n",        "alpha",        "ell",          "e",
    "lambda", "rounds",   "diameter",     "sep_distance", "sep_min_size",
    "states", "group",    "budget",       "objective",    "restarts",
    "accepted", "millis"};

std::vector<std::string> record_cells(const engine::SweepRecord& r) {
  return {engine::family_token(r.key.family),
          std::to_string(r.key.d),
          std::to_string(r.key.D),
          engine::mode_name(r.key.mode),
          engine::task_name(r.task),
          std::to_string(r.s),
          std::to_string(r.n),
          format_full(r.alpha),
          format_full(r.ell),
          format_full(r.e),
          format_full(r.lambda),
          std::to_string(r.rounds),
          std::to_string(r.diameter),
          std::to_string(r.sep_distance),
          std::to_string(r.sep_min_size),
          std::to_string(r.states),
          std::to_string(r.group),
          std::to_string(r.budget),
          format_full(r.objective),
          std::to_string(r.restarts),
          std::to_string(r.accepted),
          format_full(r.millis)};
}

engine::SweepRecord record_from_fields(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  engine::SweepRecord r;
  const auto what = [](const char* field) {
    return std::string("sweep field '") + field + "'";
  };
  for (const auto& [key, value] : fields) {
    if (key == "family") r.key.family = engine::parse_family_token(value);
    else if (key == "d") r.key.d = util::parse_int(value, what("d"));
    else if (key == "D") r.key.D = util::parse_int(value, what("D"));
    else if (key == "mode") r.key.mode = engine::parse_mode_name(value);
    else if (key == "task") r.task = engine::parse_task_name(value);
    else if (key == "s") r.s = util::parse_int(value, what("s"));
    else if (key == "n") r.n = util::parse_int(value, what("n"));
    else if (key == "alpha") r.alpha = util::parse_any_double(value, what("alpha"));
    else if (key == "ell") r.ell = util::parse_any_double(value, what("ell"));
    else if (key == "e") r.e = util::parse_any_double(value, what("e"));
    else if (key == "lambda") r.lambda = util::parse_any_double(value, what("lambda"));
    else if (key == "rounds") r.rounds = util::parse_int(value, what("rounds"));
    else if (key == "diameter") r.diameter = util::parse_int(value, what("diameter"));
    else if (key == "sep_distance")
      r.sep_distance = util::parse_int(value, what("sep_distance"));
    else if (key == "sep_min_size")
      r.sep_min_size = util::parse_i64(value, what("sep_min_size"));
    else if (key == "states") r.states = util::parse_i64(value, what("states"));
    else if (key == "group") r.group = util::parse_i64(value, what("group"));
    else if (key == "budget") r.budget = util::parse_int(value, what("budget"));
    else if (key == "objective")
      r.objective = util::parse_any_double(value, what("objective"));
    else if (key == "restarts")
      r.restarts = util::parse_int(value, what("restarts"));
    else if (key == "accepted")
      r.accepted = util::parse_i64(value, what("accepted"));
    else if (key == "millis") r.millis = util::parse_any_double(value, what("millis"));
    else throw std::invalid_argument("unknown sweep field: " + key);
  }
  return r;
}

engine::SweepRecord record_from_cells(const std::vector<std::string>& cells,
                                      const std::string& line) {
  if (cells.size() != kColumns.size())
    throw std::invalid_argument("bad sweep CSV row: " + line);
  std::vector<std::pair<std::string, std::string>> fields;
  fields.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    fields.emplace_back(kColumns[i], cells[i]);
  return record_from_fields(fields);
}

}  // namespace

std::string sweep_csv_header() { return csv_line(kColumns); }

const std::vector<std::string>& sweep_csv_columns() { return kColumns; }

std::string sweep_csv_row(const engine::SweepRecord& r) {
  return csv_line(record_cells(r));
}

engine::SweepRecord parse_sweep_csv_record(const std::string& line) {
  return record_from_cells(parse_csv_line(line), line);
}

std::string sweep_csv(const std::vector<engine::SweepRecord>& records) {
  std::ostringstream out;
  out << sweep_csv_header();
  for (const auto& r : records) out << sweep_csv_row(r);
  return out.str();
}

std::vector<engine::SweepRecord> parse_sweep_csv(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  // '#' lines are metadata the CLI prepends (e.g. "# seed=42"); skip them
  // wherever they appear.
  do {
    if (!std::getline(in, line))
      throw std::invalid_argument("empty sweep CSV");
  } while (line.empty() || line[0] == '#');
  // Sweep cells never contain newlines, so RFC-4180 parsing can run
  // line-by-line; quoted cells (and commas/quotes inside them) round-trip.
  const auto header = parse_csv_line(line);
  if (header != kColumns)
    throw std::invalid_argument("unexpected sweep CSV header: " + line);
  std::vector<engine::SweepRecord> records;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    records.push_back(record_from_cells(parse_csv_line(line), line));
  }
  return records;
}

std::string sweep_json_record(const engine::SweepRecord& r) {
  const auto cells = record_cells(r);
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < kColumns.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << kColumns[i] << "\":";
    // family/mode/task are strings; everything else is numeric.
    if (i == 0 || i == 3 || i == 4)
      out << '"' << cells[i] << '"';
    else
      out << cells[i];
  }
  out << '}';
  return out.str();
}

std::string sweep_json(const std::vector<engine::SweepRecord>& records) {
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << "  " << sweep_json_record(records[i]);
    if (i + 1 < records.size()) out << ',';
    out << '\n';
  }
  out << "]\n";
  return out.str();
}

namespace {

/// Minimal parser for the flat JSON this module emits: an array of objects
/// whose values are strings or numbers.
struct JsonScanner {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }
  [[nodiscard]] char peek() {
    skip_ws();
    if (pos >= text.size()) throw std::invalid_argument("truncated sweep JSON");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::invalid_argument(std::string("sweep JSON: expected '") + c +
                                  "' at offset " + std::to_string(pos));
    ++pos;
  }
  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') out.push_back(text[pos++]);
    expect('"');
    return out;
  }
  [[nodiscard]] std::string parse_scalar() {
    if (peek() == '"') return parse_string();
    std::string out;
    while (pos < text.size() && text[pos] != ',' && text[pos] != '}' &&
           text[pos] != ']' &&
           !std::isspace(static_cast<unsigned char>(text[pos])))
      out.push_back(text[pos++]);
    if (out.empty()) throw std::invalid_argument("sweep JSON: empty value");
    return out;
  }
};

}  // namespace

std::vector<engine::SweepRecord> parse_sweep_json(const std::string& text) {
  JsonScanner scan{text};
  std::vector<engine::SweepRecord> records;
  scan.expect('[');
  if (scan.peek() == ']') return records;
  for (;;) {
    scan.expect('{');
    std::vector<std::pair<std::string, std::string>> fields;
    if (scan.peek() != '}') {
      for (;;) {
        std::string key = scan.parse_string();
        scan.expect(':');
        fields.emplace_back(std::move(key), scan.parse_scalar());
        if (scan.peek() != ',') break;
        scan.expect(',');
      }
    }
    scan.expect('}');
    records.push_back(record_from_fields(fields));
    if (scan.peek() != ',') break;
    scan.expect(',');
  }
  scan.expect(']');
  return records;
}

}  // namespace sysgo::io

#include "io/sweep_io.hpp"

#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "io/csv.hpp"
#include "obs/json.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace sysgo::io {

namespace {

/// A field's cell: its token, or its number (doubles at full precision).
template <class T>
std::string cell(const T& value) {
  if constexpr (std::is_same_v<T, topology::Family>)
    return engine::family_token(value);
  else if constexpr (std::is_same_v<T, protocol::Mode>)
    return engine::mode_name(value);
  else if constexpr (std::is_same_v<T, engine::Task>)
    return engine::task_name(value);
  else if constexpr (std::is_floating_point_v<T>)
    return util::format_full(value);
  else
    return std::to_string(value);
}

/// The strict inverse of cell().
template <class T>
void parse_cell(const std::string& text, std::string_view column, T& out) {
  const std::string what = "sweep field '" + std::string(column) + "'";
  if constexpr (std::is_same_v<T, topology::Family>)
    out = engine::parse_family_token(text);
  else if constexpr (std::is_same_v<T, protocol::Mode>)
    out = engine::parse_mode_name(text);
  else if constexpr (std::is_same_v<T, engine::Task>)
    out = engine::parse_task_name(text);
  else if constexpr (std::is_floating_point_v<T>)
    out = util::parse_any_double(text, what);
  else if constexpr (std::is_same_v<T, int>)
    out = util::parse_int(text, what);
  else
    out = util::parse_i64(text, what);
}

std::vector<std::string> record_cells(const engine::SweepRecord& r) {
  std::vector<std::string> cells;
  cells.reserve(sweep_csv_columns().size());
  engine::for_each_field(
      [&cells](std::string_view, const auto& value) {
        cells.push_back(cell(value));
      },
      r);
  return cells;
}

engine::SweepRecord record_from_fields(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  engine::SweepRecord r;
  for (const auto& [key, value] : fields) {
    bool known = false;
    engine::for_each_field(
        [&](std::string_view column, auto& field) {
          if (column != key) return;
          parse_cell(value, column, field);
          known = true;
        },
        r);
    if (!known) throw std::invalid_argument("unknown sweep field: " + key);
  }
  return r;
}

engine::SweepRecord record_from_cells(const std::vector<std::string>& cells,
                                      const std::string& line) {
  const auto& columns = sweep_csv_columns();
  if (cells.size() != columns.size())
    throw std::invalid_argument("bad sweep CSV row: " + line);
  std::vector<std::pair<std::string, std::string>> fields;
  fields.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    fields.emplace_back(columns[i], cells[i]);
  return record_from_fields(fields);
}

}  // namespace

std::string sweep_csv_header() { return csv_line(sweep_csv_columns()); }

const std::vector<std::string>& sweep_csv_columns() {
  static const std::vector<std::string> columns = [] {
    std::vector<std::string> names;
    const engine::SweepRecord r;
    engine::for_each_field(
        [&names](std::string_view column, const auto&) {
          names.emplace_back(column);
        },
        r);
    return names;
  }();
  return columns;
}

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
  if (header != sweep_csv_columns())
    throw std::invalid_argument("unexpected sweep CSV header: " + line);
  std::vector<engine::SweepRecord> records;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    records.push_back(record_from_cells(parse_csv_line(line), line));
  }
  return records;
}

std::string sweep_json_record(const engine::SweepRecord& r) {
  std::ostringstream out;
  char sep = '{';
  engine::for_each_field(
      [&](std::string_view column, const auto& value) {
        // Tokens (the enum fields) are JSON strings; the rest are numbers.
        constexpr bool quoted =
            std::is_enum_v<std::remove_cvref_t<decltype(value)>>;
        out << sep << '"' << column << "\":";
        if (quoted) out << '"';
        out << cell(value);
        if (quoted) out << '"';
        sep = ',';
      },
      r);
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

std::vector<engine::SweepRecord> parse_sweep_json(const std::string& text) {
  using Kind = obs::json::Value::Kind;
  obs::json::Value doc;
  try {
    doc = obs::json::parse(text);
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument(std::string("sweep JSON: ") + e.what());
  }
  if (doc.kind != Kind::kArray)
    throw std::invalid_argument("sweep JSON: expected an array of records");
  std::vector<engine::SweepRecord> records;
  records.reserve(doc.items.size());
  for (const obs::json::Value& item : doc.items) {
    if (item.kind != Kind::kObject)
      throw std::invalid_argument("sweep JSON: expected a record object");
    // A number's token as written, so the strict field parsers see exactly
    // what the writer printed.
    std::vector<std::pair<std::string, std::string>> fields;
    fields.reserve(item.members.size());
    for (const auto& [key, value] : item.members) {
      if (value.kind != Kind::kString && value.kind != Kind::kNumber)
        throw std::invalid_argument("sweep JSON: field '" + key +
                                    "' is not a string or number");
      fields.emplace_back(key, value.str);
    }
    records.push_back(record_from_fields(fields));
  }
  return records;
}

}  // namespace sysgo::io

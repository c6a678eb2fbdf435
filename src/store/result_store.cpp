#include "store/result_store.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/sweep_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fs.hpp"
#include "util/table.hpp"

namespace sysgo::store {

namespace {

constexpr std::string_view kHeader = "# sysgo-store v1";

/// Store observability (catalog in README "Observability"): API-level
/// lookup/insert latency and outcomes, plus bytes appended to the log.
struct StoreMetrics {
  obs::Histogram& lookup_micros = obs::histogram("store.lookup.micros");
  obs::Histogram& insert_micros = obs::histogram("store.insert.micros");
  obs::Counter& lookup_hits = obs::counter("store.lookup.hits");
  obs::Counter& lookup_misses = obs::counter("store.lookup.misses");
  obs::Counter& inserted = obs::counter("store.insert.inserted");
  obs::Counter& duplicates = obs::counter("store.insert.duplicates");
  obs::Counter& conflicts = obs::counter("store.insert.conflicts");
  obs::Counter& log_bytes = obs::counter("store.log_bytes_written");
};

StoreMetrics& store_metrics() {
  static StoreMetrics m;
  return m;
}

[[maybe_unused]] const bool kStoreMetricsRegistered = (store_metrics(), true);

/// Trace instants marking store outcomes on the calling lane's timeline
/// (cache hits explain "why was this task instantaneous" in a sweep trace).
struct StoreTraceNames {
  obs::trace::NameId hit = obs::trace::intern("store.hit");
  obs::trace::NameId miss = obs::trace::intern("store.miss");
  obs::trace::NameId insert = obs::trace::intern("store.insert");
};

const StoreTraceNames& store_trace_names() {
  static const StoreTraceNames n;
  return n;
}

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

bool family_is_seeded(topology::Family f) {
  return f == topology::Family::kRandomRegular ||
         f == topology::Family::kRandomGnp;
}

/// The limit fields that can change this task's result.  Thread counts and
/// the within-round parallelism toggle are excluded on purpose: results are
/// identical for any value (asserted by the engine's determinism tests).
std::string limits_fingerprint(engine::Task task,
                               const engine::ExecutionLimits& limits) {
  std::ostringstream out;
  switch (task) {
    case engine::Task::kBound:
    case engine::Task::kDiameterBound:
    case engine::Task::kAudit:
    case engine::Task::kSeparatorCheck:
      break;  // closed-form / derived from the schedule alone
    case engine::Task::kSimulate:
      out << "max_rounds=" << limits.simulate_max_rounds;
      break;
    case engine::Task::kSolveGossip:
    case engine::Task::kSolveBroadcast:
      out << "max_rounds=" << limits.solve_max_rounds
          << " max_states=" << limits.solve_max_states;
      break;
    case engine::Task::kSynthesize:
      out << "restarts=" << limits.synth_restarts
          << " iterations=" << limits.synth_iterations
          << " max_rounds=" << limits.simulate_max_rounds
          << " time_budget_ms=" << util::format_full(limits.synth_time_budget_ms);
      break;
  }
  return out.str();
}

}  // namespace

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

StoreKey make_store_key(const engine::SweepJob& job,
                        const engine::ExecutionLimits& limits) {
  std::ostringstream out;
  out << "salt=" << kCodeVersionSalt
      << " family=" << engine::family_token(job.key.family)
      << " d=" << job.key.d << " D=" << job.key.D
      << " mode=" << engine::mode_name(job.key.mode)
      << " task=" << engine::task_name(job.task) << " s=" << job.s;
  const std::string fp = limits_fingerprint(job.task, limits);
  if (!fp.empty()) out << " limits=[" << fp << ']';
  // The seed only identifies a result when randomness feeds it: the member
  // graph of a random family, or the synthesizer's restart streams.
  if (family_is_seeded(job.key.family) || job.task == engine::Task::kSynthesize)
    out << " seed=" << limits.seed;
  StoreKey key{out.str(), 0};
  key.digest = fnv1a64(key.text);
  return key;
}

// --------------------------------------------------------------- ResultStore

ResultStore::ResultStore(const std::string& path) : path_(path) {
  // The lock lives in a sidecar file: compact() replaces the store's inode
  // via rename, which would silently orphan a lock taken on the store
  // file itself.
  lock_ = std::make_unique<util::FileLock>(path_ + ".lock");
  load();
}

ResultStore::~ResultStore() = default;

std::string ResultStore::log_line(const Row& row) const {
  // One record per line: digest, canonical key, sweep CSV row.  The key
  // text is built from fixed tokens and numbers (no tabs/newlines), and
  // CSV quoting keeps the row single-line, so '\t' splits are safe.
  std::string csv = io::sweep_csv_row(row.record);
  if (!csv.empty() && csv.back() == '\n') csv.pop_back();
  return digest_hex(row.key.digest) + '\t' + row.key.text + '\t' + csv + '\n';
}

void ResultStore::load() {
  if (!util::file_exists(path_)) {
    util::write_file_atomic(path_, std::string(kHeader) + '\n');
    return;
  }
  const std::string text = util::read_text_file(path_);
  if (text.empty()) {
    util::write_file_atomic(path_, std::string(kHeader) + '\n');
    return;
  }
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader)
    throw std::runtime_error(path_ + " is not a sysgo result store");
  std::size_t lineno = 1;
  // A line is torn when the file ends without a trailing newline — the
  // signature of a crash mid-append; it is dropped (and any parse failure
  // on it forgiven).  Malformed *interior* lines mean corruption and throw.
  const bool torn_tail = text.back() != '\n';
  while (std::getline(in, line)) {
    ++lineno;
    const bool is_tail = in.peek() == std::istream::traits_type::eof();
    try {
      if (line.empty()) throw std::runtime_error("empty line");
      const std::size_t tab1 = line.find('\t');
      const std::size_t tab2 =
          tab1 == std::string::npos ? std::string::npos
                                    : line.find('\t', tab1 + 1);
      if (tab2 == std::string::npos) throw std::runtime_error("missing field");
      Row row;
      row.key.text = line.substr(tab1 + 1, tab2 - tab1 - 1);
      row.key.digest = fnv1a64(row.key.text);
      std::uint64_t stored = 0;
      const auto [ptr, ec] =
          std::from_chars(line.data(), line.data() + tab1, stored, 16);
      if (ec != std::errc{} || ptr != line.data() + tab1 ||
          stored != row.key.digest)
        throw std::runtime_error("digest mismatch");
      row.record = io::parse_sweep_csv_record(line.substr(tab2 + 1));
      if (const Row* existing = find_locked(row.key)) {
        if (!engine::same_result(existing->record, row.record))
          throw std::runtime_error("conflicting records for key: " +
                                   row.key.text);
        continue;  // duplicate from a hand-concatenated log; compact() reaps
      }
      index_[row.key.digest].push_back(rows_.size());
      rows_.push_back(std::move(row));
    } catch (const std::exception& e) {
      if (is_tail && torn_tail) break;  // crash-torn final append
      throw std::runtime_error(path_ + ":" + std::to_string(lineno) +
                               ": malformed store line (" + e.what() + ")");
    }
  }
}

const ResultStore::Row* ResultStore::find_locked(const StoreKey& key) const {
  const auto it = index_.find(key.digest);
  if (it == index_.end()) return nullptr;
  for (const std::size_t i : it->second)
    if (rows_[i].key.text == key.text) return &rows_[i];
  return nullptr;
}

void ResultStore::append_locked(const Row& row) {
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("cannot append to " + path_);
  const std::string line = log_line(row);
  out << line;
  out.flush();
  if (!out) throw std::runtime_error("short append to " + path_);
  store_metrics().log_bytes.add(line.size());
  index_[row.key.digest].push_back(rows_.size());
  rows_.push_back(row);
}

std::optional<engine::SweepRecord> ResultStore::lookup(
    const StoreKey& key) const {
  auto& sm = store_metrics();
  const obs::ScopedTimer span(sm.lookup_micros);
  std::lock_guard<std::mutex> lock(mutex_);
  const Row* row = find_locked(key);
  if (row == nullptr) {
    sm.lookup_misses.add(1);
    obs::trace::instant(store_trace_names().miss);
    return std::nullopt;
  }
  sm.lookup_hits.add(1);
  obs::trace::instant(store_trace_names().hit);
  return row->record;
}

InsertOutcome ResultStore::insert(const StoreKey& key,
                                  const engine::SweepRecord& record) {
  auto& sm = store_metrics();
  const obs::ScopedTimer span(sm.insert_micros);
  std::lock_guard<std::mutex> lock(mutex_);
  if (const Row* existing = find_locked(key)) {
    const bool same = engine::same_result(existing->record, record);
    (same ? sm.duplicates : sm.conflicts).add(1);
    return same ? InsertOutcome::kDuplicate : InsertOutcome::kConflict;
  }
  append_locked(Row{key, record});
  sm.inserted.add(1);
  obs::trace::instant(store_trace_names().insert);
  return InsertOutcome::kInserted;
}

MergeStats ResultStore::merge_from(const ResultStore& other) {
  std::vector<Row> incoming;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    incoming = other.rows_;
  }
  MergeStats stats;
  // Bulk path: classify in memory and append all new rows with one open +
  // flush, not one per record (shard stores hold whole campaigns).
  std::lock_guard<std::mutex> lock(mutex_);
  std::string appended;
  for (const Row& row : incoming) {
    if (const Row* existing = find_locked(row.key)) {
      if (engine::same_result(existing->record, row.record))
        ++stats.duplicates;
      else
        stats.conflicts.push_back(row.key.text);
      continue;
    }
    appended += log_line(row);
    index_[row.key.digest].push_back(rows_.size());
    rows_.push_back(row);
    ++stats.inserted;
  }
  if (!appended.empty()) {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    if (!out) throw std::runtime_error("cannot append to " + path_);
    out << appended;
    out.flush();
    if (!out) throw std::runtime_error("short append to " + path_);
  }
  return stats;
}

void ResultStore::compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::sort(rows_.begin(), rows_.end(), [](const Row& a, const Row& b) {
    return a.key.text < b.key.text;
  });
  std::ostringstream out;
  out << kHeader << '\n';
  for (const Row& row : rows_) out << log_line(row);
  util::write_file_atomic(path_, out.str());
  index_.clear();
  for (std::size_t i = 0; i < rows_.size(); ++i)
    index_[rows_[i].key.digest].push_back(i);
}

std::size_t ResultStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_.size();
}

std::vector<engine::SweepRecord> ResultStore::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<engine::SweepRecord> out;
  out.reserve(rows_.size());
  for (const Row& row : rows_) out.push_back(row.record);
  return out;
}

}  // namespace sysgo::store

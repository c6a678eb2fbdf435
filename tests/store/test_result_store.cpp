#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "io/sweep_io.hpp"
#include "util/fs.hpp"
#include "../mutation.hpp"

namespace sysgo::store {
namespace {

using engine::ExecutionLimits;
using engine::SweepJob;
using engine::SweepRecord;
using engine::Task;
using protocol::Mode;
using topology::Family;

/// Fresh path under the gtest temp dir; any previous run's file is removed.
std::string temp_store(const std::string& name) {
  const std::string path = ::testing::TempDir() + "sysgo_" + name + ".store";
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  return path;
}

SweepJob simulate_job(Family f = Family::kDeBruijn, int D = 4) {
  SweepJob job;
  job.key = {f, 2, D, Mode::kHalfDuplex};
  job.task = Task::kSimulate;
  return job;
}

SweepRecord simulate_record(int rounds) {
  SweepRecord r;
  r.key = {Family::kDeBruijn, 2, 4, Mode::kHalfDuplex};
  r.task = Task::kSimulate;
  r.s = 4;
  r.n = 16;
  r.rounds = rounds;
  r.millis = 1.25;
  return r;
}

TEST(StoreKey, CanonicalTextIsStableAndSalted) {
  const auto key = make_store_key(simulate_job(), ExecutionLimits{});
  EXPECT_NE(key.text.find("family=db"), std::string::npos) << key.text;
  EXPECT_NE(key.text.find("task=simulate"), std::string::npos);
  EXPECT_NE(key.text.find("salt=" + std::to_string(kCodeVersionSalt)),
            std::string::npos);
  EXPECT_EQ(key.digest, fnv1a64(key.text));
}

TEST(StoreKey, SeedOnlyMattersWhereRandomnessFeedsTheResult) {
  ExecutionLimits a, b;
  a.seed = 1;
  b.seed = 2;
  // Deterministic family, deterministic task: the seed must NOT split the
  // key (a record computed under any seed serves every other).
  EXPECT_EQ(make_store_key(simulate_job(), a).text,
            make_store_key(simulate_job(), b).text);
  // Random-family member graphs depend on the seed.
  EXPECT_NE(make_store_key(simulate_job(Family::kRandomRegular), a).text,
            make_store_key(simulate_job(Family::kRandomRegular), b).text);
  // The synthesizer's restart streams always depend on the seed.
  SweepJob synth = simulate_job();
  synth.task = Task::kSynthesize;
  EXPECT_NE(make_store_key(synth, a).text, make_store_key(synth, b).text);
}

TEST(StoreKey, OnlyResultRelevantLimitsAreFolded) {
  const SweepJob job = simulate_job();
  ExecutionLimits a, b;
  b.simulate_max_rounds = 99;
  EXPECT_NE(make_store_key(job, a).text, make_store_key(job, b).text);
  // Thread counts and the parallel-merge toggle cannot change results and
  // must not fragment the store.
  ExecutionLimits c;
  c.solve_threads = 8;
  c.synth_threads = 8;
  c.simulate_parallel_rounds = true;
  EXPECT_EQ(make_store_key(job, a).text, make_store_key(job, c).text);
  // Solver budgets can change results (budget exhaustion) and must split.
  SweepJob solve = simulate_job();
  solve.task = Task::kSolveGossip;
  ExecutionLimits d;
  d.solve_max_states = 1000;
  EXPECT_NE(make_store_key(solve, a).text, make_store_key(solve, d).text);
}

TEST(ResultStore, InsertLookupRoundTrips) {
  const std::string path = temp_store("roundtrip");
  ResultStore store(path);
  const auto key = make_store_key(simulate_job(), ExecutionLimits{});
  EXPECT_EQ(store.lookup(key), std::nullopt);
  EXPECT_EQ(store.insert(key, simulate_record(10)), InsertOutcome::kInserted);
  const auto hit = store.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(engine::same_result(*hit, simulate_record(10)));
  EXPECT_DOUBLE_EQ(hit->millis, 1.25);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStore, PersistsAcrossReopen) {
  const std::string path = temp_store("reopen");
  const auto key = make_store_key(simulate_job(), ExecutionLimits{});
  {
    ResultStore store(path);
    EXPECT_EQ(store.insert(key, simulate_record(10)), InsertOutcome::kInserted);
  }
  ResultStore store(path);
  EXPECT_EQ(store.size(), 1u);
  const auto hit = store.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rounds, 10);
}

TEST(ResultStore, DuplicateKeepsFirstConflictLeavesStoreUntouched) {
  const std::string path = temp_store("conflict");
  ResultStore store(path);
  const auto key = make_store_key(simulate_job(), ExecutionLimits{});
  EXPECT_EQ(store.insert(key, simulate_record(10)), InsertOutcome::kInserted);
  // Same result, different wall-clock: a duplicate, and the stored record
  // (first write) wins so warm re-runs stay byte-stable.
  SweepRecord again = simulate_record(10);
  again.millis = 99.0;
  EXPECT_EQ(store.insert(key, again), InsertOutcome::kDuplicate);
  EXPECT_DOUBLE_EQ(store.lookup(key)->millis, 1.25);
  // A different result under the same key is a conflict.
  EXPECT_EQ(store.insert(key, simulate_record(11)), InsertOutcome::kConflict);
  EXPECT_EQ(store.lookup(key)->rounds, 10);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStore, MergeUnionsAndReportsConflicts) {
  const std::string p1 = temp_store("merge1");
  const std::string p2 = temp_store("merge2");
  const auto key_a = make_store_key(simulate_job(Family::kDeBruijn, 3), {});
  const auto key_b = make_store_key(simulate_job(Family::kDeBruijn, 4), {});
  const auto key_c = make_store_key(simulate_job(Family::kKautz, 4), {});
  ResultStore s1(p1);
  ResultStore s2(p2);
  ASSERT_EQ(s1.insert(key_a, simulate_record(7)), InsertOutcome::kInserted);
  ASSERT_EQ(s1.insert(key_b, simulate_record(10)), InsertOutcome::kInserted);
  ASSERT_EQ(s2.insert(key_b, simulate_record(10)), InsertOutcome::kInserted);
  ASSERT_EQ(s2.insert(key_c, simulate_record(12)), InsertOutcome::kInserted);
  const auto stats = s1.merge_from(s2);
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_TRUE(stats.conflicts.empty());
  EXPECT_EQ(s1.size(), 3u);

  // Diverging result for key_a in a third store: reported, not applied.
  const std::string p3 = temp_store("merge3");
  ResultStore s3(p3);
  ASSERT_EQ(s3.insert(key_a, simulate_record(8)), InsertOutcome::kInserted);
  const auto bad = s1.merge_from(s3);
  ASSERT_EQ(bad.conflicts.size(), 1u);
  EXPECT_EQ(bad.conflicts[0], key_a.text);
  EXPECT_EQ(s1.lookup(key_a)->rounds, 7);
}

TEST(ResultStore, CompactProducesDeterministicSortedBytes) {
  const std::string p1 = temp_store("compact1");
  const std::string p2 = temp_store("compact2");
  const auto key_a = make_store_key(simulate_job(Family::kDeBruijn, 3), {});
  const auto key_b = make_store_key(simulate_job(Family::kKautz, 4), {});
  {
    ResultStore a(p1);
    a.insert(key_a, simulate_record(7));
    a.insert(key_b, simulate_record(9));
    a.compact();
  }
  {
    ResultStore b(p2);  // same records, opposite insertion order
    b.insert(key_b, simulate_record(9));
    b.insert(key_a, simulate_record(7));
    b.compact();
  }
  EXPECT_EQ(util::read_text_file(p1), util::read_text_file(p2));
  ResultStore reopened(p1);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.lookup(key_a)->rounds, 7);
}

TEST(ResultStore, TornFinalLineIsDroppedMalformedInteriorThrows) {
  const std::string path = temp_store("torn");
  const auto key = make_store_key(simulate_job(), ExecutionLimits{});
  {
    ResultStore store(path);
    store.insert(key, simulate_record(10));
  }
  {
    // A crash mid-append leaves a partial line with no trailing newline.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "deadbeef\tsalt=1 family=db partial";
  }
  {
    ResultStore store(path);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.lookup(key).has_value());
  }
  {
    // The same garbage followed by a newline and a valid line is interior
    // corruption, not a torn tail: loading must fail loudly.
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "# sysgo-store v1\ngarbage line\n";
    ResultStore good(temp_store("torn_donor"));
    good.insert(key, simulate_record(10));
    out << util::read_text_file(good.path()).substr(17);  // skip header+\n
  }
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
}

TEST(ResultStore, RejectsForeignFiles) {
  const std::string path = temp_store("foreign");
  {
    std::ofstream out(path);
    out << "family,d,D\n";
  }
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
}

TEST(ResultStore, SecondOpenOfALockedStoreThrows) {
  const std::string path = temp_store("locked");
  ResultStore first(path);
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
}

// Seeded mutation test of the log: every mutant either makes the store
// refuse to open with std::runtime_error (a torn final line is dropped
// instead), or loads, compacts, and reopens to the same records.
TEST(StoreMutation, LogRejectsCleanlyOrReopensToTheSameRecords) {
  const std::string base_path = temp_store("mutation_base");
  {
    ResultStore store(base_path);
    engine::SweepOptions opts;
    opts.store = &store;
    engine::ScenarioSpec spec;
    spec.families = {Family::kDeBruijn, Family::kKautz};
    spec.degrees = {2};
    spec.dimensions = {3};
    spec.periods = {4};
    spec.tasks = {Task::kBound, Task::kSimulate, Task::kAudit};
    (void)engine::SweepRunner(opts).run(spec);
  }
  const std::string base = util::read_text_file(base_path);
  const auto rendered = [](const std::vector<SweepRecord>& records) {
    std::vector<std::string> rows;
    for (const SweepRecord& r : records) rows.push_back(io::sweep_csv_row(r));
    return rows;
  };
  const std::string path = temp_store("mutation");
  test::run_mutations(base, 0x570e1ULL, "store log", [&](const std::string& text) {
    util::write_file_atomic(path, text);
    std::vector<std::string> rows;
    try {
      ResultStore store(path);
      store.compact();
      rows = rendered(store.records());
    } catch (const std::runtime_error&) {
      return false;
    }
    const ResultStore reopened(path);
    EXPECT_EQ(rendered(reopened.records()), rows);
    return true;
  });
}

}  // namespace
}  // namespace sysgo::store

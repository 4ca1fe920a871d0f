// The soak kernel (robust/soak.hpp) and the two oracles every soak
// shares: the verdict ladder's order, the JSON document's shape, the
// write-journal successor check, and the path oracle.

#include "robust/soak.hpp"

#include <gtest/gtest.h>

#include <random>

#include "dyn/slice_journal.hpp"
#include "helpers.hpp"
#include "serve/query_engine.hpp"

namespace {

struct Outcome : robust::SoakResult {
  std::uint64_t batches = 0;
  std::uint64_t wrong = 0;
  std::uint64_t failed = 0;
  std::uint64_t sheds = 0;
  bool drained = true;

  void fields(robust::FieldList& v) const {
    v.count("batches", batches);
    v.wrong("wrong_answers", wrong);
    v.failure("failed", failed);
    v.must("drained", drained, "drain did not finish");
    v.goal("sheds", sheds, 2);
  }
};

TEST(SoakKernel, VerdictLadderReportsTheFirstFailingRung) {
  Outcome o;
  o.wrong = 1;
  o.failed = 1;
  o.drained = false;
  robust::FirstFailure fail(o.first_failure);
  fail(o.failed, "first");
  fail(o.failed, "second");
  EXPECT_EQ(o.failed, 3u);
  EXPECT_EQ(o.first_failure, "first");

  robust::judge(o, "fine");
  EXPECT_FALSE(o.goals_met);
  EXPECT_EQ(o.verdict, "FAIL: 1 answers disagreed with the oracle");
  o.wrong = 0;
  robust::judge(o, "fine");
  EXPECT_EQ(o.verdict, "FAIL: 3 unexpected failures (first: first)");
  o.failed = 0;
  robust::judge(o, "fine");
  EXPECT_EQ(o.verdict, "FAIL: drain did not finish");
  o.drained = true;
  o.sheds = 1;
  robust::judge(o, "fine");
  EXPECT_EQ(o.verdict, "FAIL: goals not observed: sheds");
  EXPECT_FALSE(robust::goals_reached(o));
  o.sheds = 2;
  EXPECT_TRUE(robust::goals_reached(o));
  robust::judge(o, "fine");
  EXPECT_TRUE(o.goals_met);
  EXPECT_EQ(o.verdict, "OK: fine");
}

TEST(SoakKernel, JsonDocumentLeadsWithTheLabelAndEndsWithTheVerdict) {
  Outcome o;
  o.batches = 7;
  o.sheds = 2;
  o.first_failure = "say \"hi\"";
  robust::judge(o, "fine");
  const std::string path = testing::TempDir() + "coop_soak_kernel.json";
  robust::ReportOptions where;
  where.json = true;
  where.json_path = path;
  where.context = [](robust::JsonFields& j) { j.count("seed", 3); };
  ASSERT_EQ(robust::report("kernel soak", "kernel", o, where), 0);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[512] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n),
            "{\"soak\":\"kernel\",\"seed\":3,\"batches\":7,"
            "\"wrong_answers\":0,\"failed\":0,\"drained\":true,\"sheds\":2,"
            "\"goals_met\":true,\"first_failure\":\"say \\\"hi\\\"\","
            "\"verdict\":\"OK: fine\"}\n");
  std::remove(path.c_str());
}

TEST(SliceJournal, SuccessorCheckSeesLostWrongAndInFlightKeys) {
  dyn::SliceJournal j(1);
  EXPECT_EQ(j.lo(), dyn::SliceJournal::kSliceBase +
                        dyn::SliceJournal::kSliceSpan);
  const cat::Key k = j.lo() + 10;
  // Last op wins: insert k+5 then delete it leaves only k live.
  const dyn::Mutation batch[] = {{3, k, dyn::Op::kInsert},
                                 {3, k + 5, dyn::Op::kInsert},
                                 {3, k + 5, dyn::Op::kDelete}};
  const auto ops = dyn::SliceJournal::collapse(batch);
  ASSERT_EQ(ops.size(), 2u);
  j.begin(ops);
  EXPECT_EQ(j.in_flight(), 2u);
  j.ack(ops);
  EXPECT_EQ(j.in_flight(), 0u);

  using C = dyn::JournalCheck;
  EXPECT_EQ(j.check(3, k, k), C::kOk);
  EXPECT_EQ(j.check(3, k - 3, k), C::kOk);
  EXPECT_EQ(j.check(3, k, k - 1), C::kWrong);     // below y
  EXPECT_EQ(j.check(3, k, k + 20), C::kLost);     // skipped a live key
  EXPECT_EQ(j.check(3, k + 1, k + 5), C::kWrong); // a deleted key resurfaced
  EXPECT_EQ(j.check(3, k + 1, j.hi()), C::kOk);   // nothing of ours above
  EXPECT_EQ(j.check(4, k, k), C::kWrong);         // never written at node 4

  // A batch in flight at a kill: its keys may or may not be served.
  const dyn::Mutation unsure[] = {{3, k + 7, dyn::Op::kInsert}};
  j.begin(dyn::SliceJournal::collapse(unsure));
  EXPECT_EQ(j.check(3, k + 1, k + 7), C::kOk);
  EXPECT_EQ(j.check(3, k + 1, j.hi()), C::kOk);
}

/// A PathAnswerSet whose answer q has proper indices proper[q] (and the
/// same aug indices, which the oracle does not read).
serve::PathAnswerSet answer_set(
    const std::vector<std::vector<std::uint32_t>>& proper) {
  return test_helpers::answer_set(proper, proper);
}

TEST(PathOracle, CountsEveryWrongMissingOrExtraAnswer) {
  std::mt19937_64 rng(5);
  const cat::Tree tree =
      cat::make_balanced_binary(4, 300, cat::CatalogShape::kRandom, rng);
  const auto batch = serve::random_path_batch(tree, rng, 8);
  std::vector<std::vector<std::uint32_t>> proper(batch.size());
  for (std::size_t qi = 0; qi < batch.size(); ++qi) {
    ASSERT_EQ(batch[qi].path.front(), tree.root());
    ASSERT_TRUE(tree.is_leaf(batch[qi].path.back()));
    for (const cat::NodeId v : batch[qi].path) {
      proper[qi].push_back(
          static_cast<std::uint32_t>(tree.catalog(v).find(batch[qi].y)));
    }
  }
  EXPECT_EQ(serve::count_path_mismatches(tree, batch, answer_set(proper)),
            0u);
  proper[0][1] += 1;
  proper[1].pop_back();
  proper[2].push_back(0);
  proper.emplace_back();
  EXPECT_EQ(serve::count_path_mismatches(tree, batch, answer_set(proper)),
            4u);
  EXPECT_EQ(serve::root_path(tree, batch[3].path.back()), batch[3].path);
}

}  // namespace

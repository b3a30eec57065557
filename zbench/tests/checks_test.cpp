// The benchmark's own tests: each correctness check passes on a small real
// run and fails when one fact of that run is deliberately falsified — a
// payment dropped, a total off by one coin, one node's tip changed.
#include <gtest/gtest.h>

#include "checks.hpp"
#include "core/engine.hpp"
#include "net/scenario.hpp"
#include "sim/workload.hpp"

namespace {

using namespace zendoo;
using namespace zbench;
using crypto::Digest;

std::vector<latus::Utxo> all_utxos(const latus::LatusState& state) {
  std::vector<latus::Utxo> out;
  for (auto pos : state.mst().occupied_positions()) out.push_back(*state.utxo_at(pos));
  return out;
}

/// A tiny sidechain run: 4 funded users, one epoch of payments, its
/// certificate finalized on the MC.
struct SmallSidechain {
  crypto::KeyPair miner = crypto::KeyPair::from_seed(
      crypto::hash_str(crypto::Domain::kGeneric, "checks-test-miner"));
  std::vector<crypto::KeyPair> users = sim::make_keys(4, 77);
  Digest sc_id = crypto::hash_str(crypto::Domain::kGeneric, "checks-test-sc");
  core::Engine engine{mainchain::ChainParams{}, miner};
  latus::LatusNode* node = nullptr;
  std::vector<Digest> submitted, confirmed;
  mainchain::Amount forwarded = 0;
  mainchain::Amount bt_amount = 0;

  SmallSidechain() {
    node = &engine.add_latus_sidechain(sc_id, 2, 4, 2, users, 12);
    engine.step();
    forwarded = 4 * 10'000;
    sim::fund_users(engine, sc_id, users, 10'000);
    engine.step();
    for (std::size_t i = 0; i < users.size(); ++i) {
      auto coin = node->state().utxos_of(users[i].address()).front();
      if (i == 0) {
        bt_amount = coin.amount;
        node->submit_backward_transfer(latus::build_backward_transfer(
            {coin}, users[i], {{users[i].address(), coin.amount}}));
        continue;
      }
      auto tx = latus::build_payment(
          {coin}, users[i], {{users[(i + 1) % users.size()].address(), 4'000},
                             {users[i].address(), coin.amount - 4'000}});
      submitted.push_back(tx.id());
      node->submit_payment(std::move(tx));
    }
    while (engine.mc().height() < 9) engine.step();  // epoch 0 finalized
    for (const auto& b : node->chain()) {
      for (const auto& p : b.payments) confirmed.push_back(p.id());
    }
  }
};

TEST(Checks, PaymentsConfirmedExactlyOnce) {
  SmallSidechain sc;
  ASSERT_EQ(sc.submitted.size(), 3u);
  EXPECT_EQ(checks::confirmed_exactly_once(sc.submitted, sc.confirmed), "");

  auto dropped = sc.confirmed;
  dropped.pop_back();  // one payment dropped
  EXPECT_NE(checks::confirmed_exactly_once(sc.submitted, dropped), "");
  auto twice = sc.confirmed;
  twice.push_back(twice.front());  // one payment confirmed twice
  EXPECT_NE(checks::confirmed_exactly_once(sc.submitted, twice), "");
  auto stranger = sc.confirmed;
  stranger.push_back(crypto::hash_str(crypto::Domain::kGeneric, "x"));
  EXPECT_NE(checks::confirmed_exactly_once(sc.submitted, stranger), "");
}

TEST(Checks, LedgerMatchesSidechainUtxos) {
  SmallSidechain sc;
  auto ledger = all_utxos(sc.node->state());
  EXPECT_EQ(checks::same_utxo_set(ledger, all_utxos(sc.node->state())), "");

  auto off = ledger;
  off[0].amount += 1;  // one coin worth one unit more
  EXPECT_NE(checks::same_utxo_set(off, all_utxos(sc.node->state())), "");
  auto missing = ledger;
  missing.pop_back();
  EXPECT_NE(checks::same_utxo_set(missing, all_utxos(sc.node->state())), "");
}

TEST(Checks, SidechainCoinsConserved) {
  SmallSidechain sc;
  const auto supply = sc.node->state().total_supply();
  EXPECT_EQ(checks::sc_conserved(sc.forwarded, supply, sc.bt_amount), "");
  EXPECT_NE(checks::sc_conserved(sc.forwarded, supply + 1, sc.bt_amount), "");
  EXPECT_NE(checks::sc_conserved(sc.forwarded, supply, sc.bt_amount - 1), "");
}

TEST(Checks, BackwardTransferReceiversPaidExactly) {
  SmallSidechain sc;
  const Digest who = sc.users[0].address();
  std::map<Digest, mainchain::Amount> before{{who, 0}};
  std::map<Digest, mainchain::Amount> after{
      {who, sc.engine.mc().state().balance_of(who)}};
  EXPECT_EQ(checks::balances_grew_by(before, after, {{who, sc.bt_amount}}), "");
  EXPECT_NE(checks::balances_grew_by(before, after, {{who, sc.bt_amount + 1}}), "");
}

TEST(Checks, EpochCertificatesFinalized) {
  SmallSidechain sc;
  const auto* st = sc.engine.mc().state().find_sidechain(sc.sc_id);
  std::uint64_t certs = 0;
  for (std::uint64_t h = 1; h <= sc.engine.mc().height(); ++h) {
    certs += sc.engine.mc().find_block(sc.engine.mc().hash_at_height(h))->certificates.size();
  }
  EXPECT_EQ(checks::epochs_certified(1, certs, st->last_finalized_epoch, st->ceased), "");
  EXPECT_NE(checks::epochs_certified(1, certs - 1, st->last_finalized_epoch, st->ceased), "");
  EXPECT_NE(checks::epochs_certified(2, certs, st->last_finalized_epoch, st->ceased), "");
  EXPECT_NE(checks::epochs_certified(1, certs, std::nullopt, st->ceased), "");
  EXPECT_NE(checks::epochs_certified(1, certs, st->last_finalized_epoch, true), "");
}

checks::ChainSummary summarize(const mainchain::Blockchain& chain) {
  checks::ChainSummary s;
  s.tip = chain.tip_hash();
  s.fingerprint = chain.state().state_fingerprint();
  s.utxo_count = chain.state().utxo_count();
  for (const auto& [id, st] : chain.state().sidechains()) s.sidechain_balances[id] = st.balance;
  return s;
}

TEST(Checks, ReplayedChainMatchesOrigin) {
  SmallSidechain sc;
  const auto& origin = sc.engine.mc();
  mainchain::Blockchain replay{mainchain::ChainParams{}};
  for (std::uint64_t h = 1; h <= origin.height(); ++h) {
    ASSERT_TRUE(replay.submit_block(*origin.find_block(origin.hash_at_height(h))).accepted());
  }
  const auto want = summarize(origin);
  EXPECT_EQ(checks::same_chain_state(want, summarize(replay)), "");

  auto tip = summarize(replay);
  tip.tip = replay.hash_at_height(1);
  EXPECT_NE(checks::same_chain_state(want, tip), "");
  auto balance = summarize(replay);
  balance.sidechain_balances.begin()->second -= 1;
  EXPECT_NE(checks::same_chain_state(want, balance), "");
  auto fp = summarize(replay);
  fp.fingerprint = origin.hash_at_height(2);
  EXPECT_NE(checks::same_chain_state(want, fp), "");
}

TEST(Checks, MainchainCoinsConserved) {
  SmallSidechain sc;
  const auto& state = sc.engine.mc().state();
  mainchain::Amount utxos = state.balance_of(sc.miner.address());
  for (const auto& u : sc.users) utxos += state.balance_of(u.address());
  mainchain::Amount locked = state.find_sidechain(sc.sc_id)->balance;
  const mainchain::Amount issued =
      sc.engine.mc().height() * sc.engine.mc().params().block_subsidy;
  EXPECT_EQ(checks::mc_conserved(utxos, locked, issued), "");
  EXPECT_NE(checks::mc_conserved(utxos - 1, locked, issued), "");
  EXPECT_NE(checks::mc_conserved(utxos, locked + 1, issued), "");
}

TEST(Checks, GossipStoredEverywhereAndTipsAgree) {
  net::NodeCluster cluster(5, 4);
  cluster.net.set_trace_mode(net::TraceMode::kOff);
  std::vector<Digest> mined;
  for (std::size_t i = 0; i < 3; ++i) {
    mined.push_back(cluster[i].mine().hash());
    cluster.net.run_until_idle();
  }
  auto has = [&](std::size_t n, const Digest& h) { return cluster[n].chain().has_block(h); };
  std::vector<Digest> tips;
  for (auto& n : cluster.nodes) tips.push_back(n->tip());
  EXPECT_EQ(checks::stored_everywhere(mined, 4, has), "");
  EXPECT_EQ(checks::tips_agree(tips), "");

  auto changed = tips;
  changed[2] = mined.front();  // one node's tip changed
  EXPECT_NE(checks::tips_agree(changed), "");
  auto unknown = mined;
  unknown.push_back(crypto::hash_str(crypto::Domain::kGeneric, "never mined"));
  EXPECT_NE(checks::stored_everywhere(unknown, 4, has), "");
}

}  // namespace

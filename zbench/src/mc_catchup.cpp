// mc_catchup: a fresh NetNode runs headers-first sync from 4 peers over an
// MC chain made by an Engine that hosted real CCTP traffic.
//
// Set-up builds the origin chain once: multi-input signed MC payments
// (5 inputs each), forward transfers to two Latus sidechains,
// certificates with backward transfers, BTRs against the live sidechain,
// and CSWs against the second sidechain after it ceases. The four peers
// are loaded with copies of the origin's validated chain.
//
// A round is one whole catch-up: a new 5-node cluster (same SimNet seed
// every round, so every round is the same simulation), the peers holding
// the origin chain and node 4 at genesis, validating with the deferred
// pipeline on kWorkers workers. Node 4 hosts no sidechain.
#include <algorithm>
#include <map>
#include <set>

#include "checks.hpp"
#include "core/engine.hpp"
#include "mainchain/codec.hpp"
#include "net/scenario.hpp"
#include "workloads.hpp"

namespace zbench {

namespace {

using namespace zendoo;
using crypto::Digest;
using mainchain::Amount;

constexpr std::uint64_t kChainHeight = 160;
/// Validation workers of the syncing node. With the control thread that
/// joins in, 3 of the reference host's 4 cores verify; the fourth keeps
/// the simulator and the rest of the host from preempting them.
constexpr unsigned kWorkers = 2;
constexpr std::size_t kMcUsers = 24;
constexpr std::size_t kMcPaymentsPerBlock = 6;
constexpr std::size_t kPaymentInputs = 5;
constexpr std::size_t kRefillOutputs = 20;
constexpr Amount kRefillValue = 10'000;
constexpr std::size_t kScUsers = 8;
constexpr std::size_t kClaimCoins = 16;  // per BTR / CSW user
constexpr std::uint64_t kEpochLen = 8;
constexpr std::uint64_t kSubmitLen = 4;
/// SC B stops certifying after this height; it ceases when the next
/// submission window closes.
constexpr std::uint64_t kSilenceFrom = 14;
/// peak_rss_mb is read after this many rounds (equal work).
constexpr std::size_t kRssRounds = 2;

Digest label_digest(const char* label, std::uint64_t seed) {
  return crypto::Hasher(crypto::Domain::kGeneric)
      .write_str(label)
      .write_u64(seed)
      .finalize();
}

/// Keys with per-seed derivation.
std::vector<crypto::KeyPair> keys(const char* label, std::size_t n,
                                  std::uint64_t seed) {
  std::vector<crypto::KeyPair> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(crypto::KeyPair::from_seed(crypto::Hasher(crypto::Domain::kGeneric)
                                                 .write_str(label)
                                                 .write_u64(seed)
                                                 .write_u64(i)
                                                 .finalize()));
  }
  return out;
}

class McCatchup {
 public:
  explicit McCatchup(const Options& opt)
      : opt_(opt),
        tracer_(opt.trace),
        miner_key_(crypto::KeyPair::from_seed(label_digest("zbench-mc-miner", opt.seed))),
        mc_users_(keys("zbench-mc-user", kMcUsers, opt.seed)),
        sc_users_(keys("zbench-sc-a-user", kScUsers, opt.seed)),
        claimers_(keys("zbench-sc-a-claimer", kScUsers / 2, opt.seed)),
        csw_users_(keys("zbench-sc-b-user", kScUsers / 2, opt.seed)),
        origin_(origin_params(), miner_key_),
        rng_(opt.seed) {}

  Result run();

 private:
  static mainchain::ChainParams origin_params() {
    mainchain::ChainParams p;
    p.validation.worker_threads = kWorkers;
    return p;
  }
  void build_origin();
  /// The miner's one transaction of a block: coins for the MC users plus
  /// this block's forward transfers.
  void queue_miner_tx(const std::vector<mainchain::ForwardTransferOutput>& fts);
  void queue_mc_payments();
  [[nodiscard]] std::vector<Digest> all_addresses() const;

  const Options& opt_;
  Tracer tracer_;
  crypto::KeyPair miner_key_;
  std::vector<crypto::KeyPair> mc_users_, sc_users_, claimers_, csw_users_;
  core::Engine origin_;
  crypto::Rng rng_;
  Digest sc_a_, sc_b_;
  latus::LatusNode* node_a_ = nullptr;
  latus::LatusNode* node_b_ = nullptr;
  std::size_t queued_btrs_ = 0, queued_csws_ = 0, queued_payments_ = 0;
};

void McCatchup::queue_miner_tx(
    const std::vector<mainchain::ForwardTransferOutput>& fts) {
  const auto& state = origin_.mc().state();
  mainchain::Transaction tx;
  for (std::size_t i = 0; i < kRefillOutputs; ++i) {
    tx.outputs.push_back({mc_users_[rng_.next_below(kMcUsers)].address(), kRefillValue});
  }
  tx.forward_transfers = fts;
  Amount needed = tx.total_output() + tx.total_forward_transfer();
  Amount gathered = 0;
  for (const auto& [op, out] : state.utxos_of(miner_key_.address())) {
    if (gathered >= needed) break;
    tx.inputs.push_back(mainchain::TxInput{op, {}, {}});
    gathered += out.amount;
  }
  if (gathered < needed) throw std::logic_error("mc_catchup: miner out of funds");
  if (gathered > needed) tx.outputs.push_back({miner_key_.address(), gathered - needed});
  origin_.mempool().transactions.push_back(
      mainchain::sign_all_inputs(std::move(tx), miner_key_));
}

void McCatchup::queue_mc_payments() {
  // Users with enough coins each pay another user an amount that needs
  // exactly kPaymentInputs of their coins (Wallet::spend takes coins in
  // utxos_of order).
  const auto& state = origin_.mc().state();
  std::size_t sent = 0;
  std::size_t start = rng_.next_below(kMcUsers);
  for (std::size_t k = 0; k < kMcUsers && sent < kMcPaymentsPerBlock; ++k) {
    const auto& user = mc_users_[(start + k) % kMcUsers];
    auto coins = state.utxos_of(user.address());
    if (coins.size() < kPaymentInputs) continue;
    Amount amount = 1;
    for (std::size_t i = 0; i + 1 < kPaymentInputs; ++i) amount += coins[i].second.amount;
    const auto& to = mc_users_[rng_.next_below(kMcUsers)];
    auto tx = mainchain::Wallet(user).pay(state, to.address(), amount);
    if (!tx || tx->inputs.size() != kPaymentInputs) continue;
    origin_.mempool().transactions.push_back(std::move(*tx));
    ++sent;
  }
  queued_payments_ += sent;
}

void McCatchup::build_origin() {
  sc_a_ = label_digest("zbench-sc-a", opt_.seed);
  sc_b_ = label_digest("zbench-sc-b", opt_.seed);
  std::vector<crypto::KeyPair> forgers_a = sc_users_;
  forgers_a.insert(forgers_a.end(), claimers_.begin(), claimers_.end());
  node_a_ = &origin_.add_latus_sidechain(sc_a_, 2, kEpochLen, kSubmitLen, forgers_a);
  node_b_ = &origin_.add_latus_sidechain(sc_b_, 2, kEpochLen, kSubmitLen, csw_users_);
  origin_.step();  // height 1: both sidechains created

  std::size_t btr_coin = 0, csw_coin = 0;
  std::set<Digest> claimed;  // coins already named by a BTR or CSW
  while (origin_.mc().height() < kChainHeight) {
    const std::uint64_t h = origin_.mc().height() + 1;
    std::vector<mainchain::ForwardTransferOutput> fts;
    auto ft = [&](const Digest& sc, const crypto::KeyPair& to, Amount amount) {
      fts.push_back({sc, {to.address(), to.address()}, amount});
    };
    if (h == 2) {
      for (const auto& u : sc_users_) for (int i = 0; i < 4; ++i) ft(sc_a_, u, 50'000);
      for (const auto& u : claimers_) for (std::size_t i = 0; i < kClaimCoins; ++i) ft(sc_a_, u, 7'000 + i);
      for (const auto& u : csw_users_) for (std::size_t i = 0; i < kClaimCoins; ++i) ft(sc_b_, u, 9'000 + i);
    } else {
      ft(sc_a_, sc_users_[rng_.next_below(kScUsers)], 1'000 + rng_.next_below(9'000));
      if (h < kSilenceFrom) {
        ft(sc_b_, csw_users_[rng_.next_below(csw_users_.size())], 500 + rng_.next_below(500));
      }
    }
    queue_miner_tx(fts);
    queue_mc_payments();

    // Sidechain A: a payment and a backward transfer per block.
    if (h > 3) {
      const auto& u = sc_users_[h % kScUsers];
      auto coins = node_a_->state().utxos_of(u.address());
      if (coins.size() >= 2) {
        const auto& to = sc_users_[rng_.next_below(kScUsers)];
        node_a_->submit_payment(latus::build_payment(
            {coins[0]}, u, {{to.address(), coins[0].amount}}));
        node_a_->submit_backward_transfer(latus::build_backward_transfer(
            {coins[1]}, u, {{u.address(), coins[1].amount}}));
      }
    }
    // BTRs against A, proven against the latest certificate the node has
    // seen. Never in a block that carries a newer certificate: the MC
    // applies certificates first and would check the BTR against it.
    const auto* sca = origin_.mc().state().find_sidechain(sc_a_);
    if (!sca->last_cert_block.is_zero() && origin_.mempool().certificates.empty() &&
        h % 2 == 0 &&
        btr_coin < claimers_.size() * kClaimCoins) {
      const auto& owner = claimers_[btr_coin % claimers_.size()];
      for (const auto& c : node_a_->state().utxos_of(owner.address())) {
        if (claimed.insert(c.nonce).second) {
          origin_.mempool().btrs.push_back(node_a_->create_btr(c, owner, owner.address()));
          ++queued_btrs_;
          break;
        }
      }
      ++btr_coin;
    }
    // SC B goes silent, ceases, and its holders exit with CSWs.
    if (h == kSilenceFrom) origin_.set_auto_certificates(sc_b_, false);
    const auto* scb = origin_.mc().state().find_sidechain(sc_b_);
    if (scb->ceased && h % 2 == 1 && csw_coin < csw_users_.size() * kClaimCoins) {
      const auto& owner = csw_users_[csw_coin % csw_users_.size()];
      auto coins = node_b_->state().utxos_of(owner.address());
      // Coins credited after the last certificate are not provable.
      for (const auto& c : coins) {
        if (c.amount >= 9'000 && claimed.insert(c.nonce).second) {
          origin_.mempool().csws.push_back(node_b_->create_csw(c, owner, owner.address()));
          ++queued_csws_;
          break;
        }
      }
      ++csw_coin;
    }
    origin_.step();
  }
}

std::vector<Digest> McCatchup::all_addresses() const {
  std::vector<Digest> out{miner_key_.address()};
  for (const auto* group : {&mc_users_, &sc_users_, &claimers_, &csw_users_}) {
    for (const auto& k : *group) out.push_back(k.address());
  }
  return out;
}

checks::ChainSummary summarize(const mainchain::Blockchain& chain) {
  checks::ChainSummary s;
  s.tip = chain.tip_hash();
  s.fingerprint = chain.state().state_fingerprint();
  s.utxo_count = chain.state().utxo_count();
  for (const auto& [id, sc] : chain.state().sidechains()) s.sidechain_balances[id] = sc.balance;
  return s;
}

Result McCatchup::run() {
  Result r;
  build_origin();
  // The peers never validate: drop the origin's worker pool so only the
  // syncing node's workers run during catch-up.
  origin_.mc().set_validation_config(parallel::ValidationConfig{});
  const mainchain::Blockchain& origin = origin_.mc();
  const std::uint64_t blocks = origin.height();

  // Block inclusion sanity: the miner drops what does not validate.
  std::size_t btrs = 0, csws = 0, certs = 0, multi_input = 0;
  std::vector<std::vector<std::uint8_t>> wire;
  for (std::uint64_t h = 1; h <= blocks; ++h) {
    const auto* b = origin.find_block(origin.hash_at_height(h));
    btrs += b->btrs.size();
    csws += b->csws.size();
    certs += b->certificates.size();
    for (const auto& tx : b->transactions) multi_input += tx.inputs.size() == kPaymentInputs;
    wire.push_back(mainchain::codec::encode_block(*b));
  }
  if (btrs != queued_btrs_ || csws != queued_csws_ || btrs == 0 || csws == 0 ||
      multi_input < queued_payments_) {
    throw std::logic_error(
        "mc_catchup: origin chain lost queued CCTP traffic (BTRs " +
        std::to_string(btrs) + "/" + std::to_string(queued_btrs_) + ", CSWs " +
        std::to_string(csws) + "/" + std::to_string(queued_csws_) +
        ", 5-input payments " + std::to_string(multi_input) + "/" +
        std::to_string(queued_payments_) + ")");
  }
  const checks::ChainSummary want = summarize(origin);
  const double setup_s = seconds_since_start();

  net::SyncConfig sync;  // headers-first, default windows
  mainchain::ChainParams sync_params;
  sync_params.validation.worker_threads = kWorkers;
  const std::uint64_t net_seed = opt_.seed * 7919 + 1;

  std::vector<double> round_s, round_ticks;
  double rss_mb = 0;
  std::uint64_t connected_total = 0, rounds = 0;
  std::map<std::string, double> totals;  // traced: per-round figures, summed

  auto t_measure = Clock::now();
  do {
    net::NodeCluster cluster(net_seed, 5, sync, sync_params);
    cluster.net.set_trace_mode(net::TraceMode::kOff);
    for (std::size_t i = 0; i < 4; ++i) cluster[i].chain() = origin;
    net::NetNode& fresh = cluster[4];
    const net::SimTime tick0 = cluster.net.now();

    auto t0 = Clock::now();
    {
      Tracer::Scope s(tracer_, "net.catchup_round");
      for (int announce = 0; announce < 8 && fresh.tip() != want.tip; ++announce) {
        cluster[0].announce_tip();
        cluster.net.run_until_idle();
      }
    }
    const double wall = seconds_since(t0);
    round_s.push_back(wall);
    round_ticks.push_back(static_cast<double>(cluster.net.now() - tick0));
    connected_total += fresh.height();
    ++rounds;

    // ---- checks: node 4 validated the chain on its own ----
    r.check("round " + std::to_string(rounds),
            checks::same_chain_state(want, summarize(fresh.chain())));
    if (rounds == 1) {
      Amount utxos = 0, locked = 0;
      for (const Digest& a : all_addresses()) utxos += fresh.chain().state().balance_of(a);
      for (const auto& [id, sc] : fresh.chain().state().sidechains()) locked += sc.balance;
      r.check("synced node", checks::mc_conserved(utxos, locked,
                                                  fresh.height() * fresh.chain().params().block_subsidy));
    }

    if (opt_.trace) {
      auto tc = Clock::now();
      const RegSnapshot mc(fresh.chain().registry());
      const RegSnapshot par(fresh.chain().state().validation_context()->registry());
      const RegSnapshot sim(cluster.net.registry());
      std::vector<std::pair<std::string, double>> row;
      for (const char* k : {"mc.connect_block_ns.sum", "mc.blocks_connected", "mc.reorgs"}) {
        row.emplace_back(k, mc[k]);
      }
      for (const char* k : {"par.checks_executed", "par.cache_hits", "par.batches",
                            "par.verify_ns{kind=signature}.sum",
                            "par.verify_ns{kind=snark}.sum"}) {
        row.emplace_back(k, par[k]);
      }
      for (const char* k : {"sim.events_processed", "sim.bytes_queued", "sim.delivered"}) {
        row.emplace_back(k, sim[k]);
      }
      for (const char* k : {"net.duplicates", "net.wire_dedup_hits",
                            "net.encode_cache_hits", "net.stalled_rerequests"}) {
        double sum = 0;
        for (auto& n : cluster.nodes) sum += RegSnapshot(n->registry())[k];
        row.emplace_back(k, sum);
      }
      for (const auto& [k, v] : row) totals[k] += v;
      tracer_.add_counters("catchup round " + std::to_string(rounds), std::move(row));
      tracer_.add_overhead(seconds_since(tc));
      Tracer::Scope s(tracer_, "mainchain.codec_decode");
      totals["codec_decode_s"] += decode_seconds(wire);
    }
    if (rounds == kRssRounds) rss_mb = peak_rss_mb();
  } while (seconds_since(t_measure) < opt_.seconds || rounds < kRssRounds);
  const double measured_s = seconds_since(t_measure);

  r.attempted = blocks * rounds;
  r.failed = r.attempted - std::min(r.attempted, connected_total);

  std::vector<double> rates;
  for (double s : round_s) rates.push_back(static_cast<double>(blocks) / s);
  if (opt_.trace) {
    const double n = static_cast<double>(rounds);
    const double per_block = n * static_cast<double>(blocks);
    auto per_round = [&](const char* k) { return totals[k] / n; };
    set_layer(r, "mainchain.connect_block_s", per_round("mc.connect_block_ns.sum") * 1e-9);
    set_layer(r, "mainchain.codec_decode_s", per_round("codec_decode_s"));
    set_layer(r, "mainchain.reorgs", per_round("mc.reorgs"));
    set_layer(r, "parallel.verify_sig_s", per_round("par.verify_ns{kind=signature}.sum") * 1e-9);
    set_layer(r, "parallel.verify_snark_s", per_round("par.verify_ns{kind=snark}.sum") * 1e-9);
    set_layer(r, "parallel.checks_executed", per_round("par.checks_executed"));
    set_layer(r, "parallel.checks_per_block", totals["par.checks_executed"] / per_block);
    set_layer(r, "parallel.cache_hits", per_round("par.cache_hits"));
    set_layer(r, "parallel.batches", per_round("par.batches"));
    set_layer(r, "sim.events", per_round("sim.events_processed"));
    double wall_total = 0;
    for (double s : round_s) wall_total += s;
    set_layer(r, "sim.events_per_s", totals["sim.events_processed"] / wall_total);
    set_layer(r, "sim.bytes_queued", per_round("sim.bytes_queued"));
    set_layer(r, "sim.catchup_ticks", median(round_ticks));
    set_layer(r, "net.msgs_delivered", per_round("sim.delivered"));
    set_layer(r, "net.msgs_per_block", totals["sim.delivered"] / per_block);
    set_layer(r, "net.duplicates", per_round("net.duplicates"));
    set_layer(r, "net.wire_dedup_hits", per_round("net.wire_dedup_hits"));
    set_layer(r, "net.encode_cache_hits", per_round("net.encode_cache_hits"));
    set_layer(r, "net.stalled_rerequests", per_round("net.stalled_rerequests"));
    set_layer(r, "trace.overhead_pct", 100.0 * tracer_.overhead_s() / measured_s);
    fill_layers(r);
    tracer_.write(std::string(kTraceDir) + "/trace_mc_catchup_" + std::to_string(opt_.seed) + ".json");
  } else {
    set_end_to_end(r, setup_s, rss_mb, median(rates), median(round_s));
  }
  r.note("catchup_blocks_per_s", median(rates), "blocks/s");
  r.note("catchup_s", median(round_s), "s");
  r.note("catchup_sim_ticks", median(round_ticks), "ticks");
  r.note("chain_blocks", static_cast<double>(blocks), "count");
  r.note("rounds", static_cast<double>(rounds), "count");
  r.note("certificates", static_cast<double>(certs), "count");
  r.note("btrs", static_cast<double>(btrs), "count");
  r.note("csws", static_cast<double>(csws), "count");
  r.note("five_input_payments", static_cast<double>(multi_input), "count");
  r.note("setup_s", setup_s, "s");
  r.note("peak_rss_mb", rss_mb, "MB");
  return r;
}

}  // namespace

Result run_mc_catchup(const Options& opt) { return McCatchup(opt).run(); }

}  // namespace zbench

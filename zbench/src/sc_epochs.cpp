// sc_epochs: one Latus sidechain with a large UTXO set. Every MC block
// carries signed SC payments from simulated clients, a backward transfer
// and a forward transfer; every withdrawal epoch ends in a recursive epoch
// proof and a certificate the MC accepts and finalizes.
//
// Clients keep their own ledger: they never spend a coin that is still
// pending, they predict every output and its MST slot (steering clear of
// occupied slots), and the run's checks compare the sidechain and the
// mainchain against that ledger at the end.
//
// A round is two withdrawal epochs of kEpochLen MC blocks each: payments
// and a backward transfer in every block but an epoch's last (payments
// queued for a boundary block would wait a block), a forward transfer in
// every block, and each epoch's certificate queued for the next block.
#include <algorithm>
#include <set>
#include <unordered_map>

#include "checks.hpp"
#include "core/engine.hpp"
#include "crypto/rng.hpp"
#include "sim/workload.hpp"
#include "workloads.hpp"

namespace zbench {

namespace {

using namespace zendoo;
using crypto::Digest;
using mainchain::Amount;

constexpr std::size_t kClients = 64;
constexpr std::size_t kCoinsPerClient = 32;  // 2,048 UTXOs in the SC
constexpr Amount kCoinValue = 20'000;
constexpr unsigned kMstDepth = 20;
constexpr std::uint64_t kStartBlock = 2;
constexpr std::uint64_t kEpochLen = 4;
constexpr std::uint64_t kSubmitLen = 2;
constexpr std::size_t kPaymentsPerBlock = 16;
/// A measured round spans this many epochs: 8 MC blocks, the node's
/// checkpoint interval, so every round does the same work.
constexpr std::uint64_t kEpochsPerRound = 2;
/// peak_rss_mb is read after this many rounds, so it compares equal work:
/// the node's memory grows with every epoch it retains.
constexpr std::size_t kRssRounds = 2;
/// Memory guard: a run ends after this many rounds even when time is
/// left. The node's reorg checkpoints copy its epoch archive, so memory
/// grows with the square of the epochs (~1.6 GB after 24 epochs); a much
/// faster build would otherwise run past what a shared host can spare.
constexpr std::size_t kMaxRounds = 16;

crypto::KeyPair key_of(const char* label, std::uint64_t seed) {
  return crypto::KeyPair::from_seed(crypto::Hasher(crypto::Domain::kGeneric)
                                        .write_str(label)
                                        .write_u64(seed)
                                        .finalize());
}

/// The clients' side of the sidechain: which coins exist (live or
/// awaiting confirmation) and which MST slots they occupy.
class Ledger {
 public:
  explicit Ledger(std::size_t clients) : live_(clients) {}

  /// Slot of `u` in the sidechain's MST.
  static std::uint64_t slot(const latus::Utxo& u) {
    return latus::mst_position(u, kMstDepth);
  }
  [[nodiscard]] bool slot_free(const latus::Utxo& u) const {
    return !taken_.contains(slot(u));
  }

  /// A coin the sidechain will hold once the current block is forged.
  void add_pending(std::size_t owner, const latus::Utxo& u) {
    taken_.insert(slot(u));
    pending_.push_back({owner, u});
  }
  /// Pending coins become spendable (their block was forged).
  void confirm_pending() {
    for (auto& [owner, u] : pending_) live_[owner].push_back(u);
    pending_.clear();
    for (std::uint64_t s : released_) taken_.erase(s);
    released_.clear();
  }
  /// Take `n` live coins of `owner` (oldest first); their slots stay
  /// taken until the block that spends them is forged.
  std::vector<latus::Utxo> take(std::size_t owner, std::size_t n) {
    auto& coins = live_[owner];
    std::vector<latus::Utxo> out(coins.begin(), coins.begin() + n);
    coins.erase(coins.begin(), coins.begin() + n);
    for (const auto& u : out) released_.push_back(slot(u));
    return out;
  }
  /// Put back coins taken for a payment that was not submitted.
  void untake(std::size_t owner, const std::vector<latus::Utxo>& coins) {
    auto& live = live_[owner];
    live.insert(live.begin(), coins.begin(), coins.end());
    released_.resize(released_.size() - coins.size());
  }
  [[nodiscard]] std::size_t live_count(std::size_t owner) const {
    return live_[owner].size();
  }
  [[nodiscard]] std::vector<latus::Utxo> all() const {
    std::vector<latus::Utxo> out;
    for (const auto& coins : live_) out.insert(out.end(), coins.begin(), coins.end());
    for (const auto& [owner, u] : pending_) out.push_back(u);
    return out;
  }

 private:
  std::vector<std::vector<latus::Utxo>> live_;
  std::vector<std::pair<std::size_t, latus::Utxo>> pending_;
  std::set<std::uint64_t> taken_;
  std::vector<std::uint64_t> released_;
};

/// The UTXO a forward transfer credits (§5.3.2: the nonce derives from
/// the FT's SCTxsCommitment leaf).
latus::Utxo ft_utxo(const mainchain::Transaction& tx, std::uint32_t index) {
  const auto& ft = tx.forward_transfers[index];
  latus::Utxo u;
  u.addr = ft.receiver_metadata[0];
  u.amount = ft.amount;
  u.nonce = crypto::Hasher(crypto::Domain::kUtxo)
                .write_str("ft-output")
                .write(ft.leaf_hash(tx.id(), index))
                .finalize();
  return u;
}

/// Every UTXO the sidechain state holds, read slot by slot.
std::vector<latus::Utxo> sc_utxos(const latus::LatusState& state) {
  std::vector<latus::Utxo> out;
  for (std::uint64_t pos : state.mst().occupied_positions()) {
    if (auto u = state.utxo_at(pos)) out.push_back(*u);
  }
  return out;
}

class ScEpochs {
 public:
  explicit ScEpochs(const Options& opt)
      : opt_(opt),
        tracer_(opt.trace),
        miner_key_(key_of("zbench-sc-miner", opt.seed)),
        clients_(sim::make_keys(kClients, 1000 + opt.seed)),
        engine_(mainchain::ChainParams{}, miner_key_),
        miner_(engine_.mc(), miner_key_.address()),
        rng_(opt.seed),
        ledger_(kClients) {
    for (std::size_t i = 0; i < kClients; ++i) owner_[clients_[i].address()] = i;
  }

  Result run();

 private:
  void setup();
  /// Queues every FT of `tx` into the ledger (or as an expected refund).
  void expect_forward_transfers(const mainchain::Transaction& tx);
  void submit_client_traffic();
  bool submit_payment(std::size_t payer, bool merge);
  /// Engine::step's sequence: mine, sync the sidechain, then queue the
  /// epoch certificate when one completed. Untraced runs call
  /// Engine::step itself; traced runs make the same calls through their
  /// public parts with a span around each.
  void step();
  /// Payments/BTs confirmed by the SC blocks forged since the last call.
  void collect_confirmations();
  [[nodiscard]] std::uint64_t mc_height() const { return engine_.mc().height(); }

  const Options& opt_;
  Tracer tracer_;
  crypto::KeyPair miner_key_;
  std::vector<crypto::KeyPair> clients_;
  std::unordered_map<Digest, std::size_t, crypto::DigestHash> owner_;
  core::Engine engine_;
  mainchain::Miner miner_;  // same coinbase address as the engine's own
  latus::LatusNode* node_ = nullptr;
  Digest sc_id_;
  crypto::Rng rng_;
  Ledger ledger_;

  // What the clients did, for the checks.
  std::vector<Digest> submitted_;
  std::vector<Digest> confirmed_;
  std::vector<Digest> submitted_bts_;
  std::vector<Digest> confirmed_bts_;
  std::map<Digest, Amount> expected_mc_growth_;
  Amount forwarded_in_ = 0;
  std::size_t sc_blocks_seen_ = 0;
  std::size_t payment_counter_ = 0;

  // Measurements.
  std::vector<double> certificate_s_;
  snark::RecursionStats proof_totals_;
  std::size_t max_depth_ = 0;
};

void ScEpochs::setup() {
  sc_id_ = crypto::Hasher(crypto::Domain::kGeneric)
               .write_str("zbench-sc")
               .write_u64(opt_.seed)
               .finalize();
  node_ = &engine_.add_latus_sidechain(sc_id_, kStartBlock, kEpochLen,
                                       kSubmitLen, clients_, kMstDepth);
  engine_.set_auto_certificates(sc_id_, false);
  step();  // height 1: sidechain creation

  // Height 2: one MC transaction funds every client's coins.
  std::vector<mainchain::Wallet::FtSpec> specs;
  for (std::size_t c = 0; c < kCoinsPerClient; ++c) {
    for (const auto& client : clients_) {
      specs.push_back({{client.address(), client.address()}, kCoinValue});
    }
  }
  auto tx = engine_.miner_wallet().forward_transfer_many(engine_.mc().state(),
                                                         sc_id_, specs);
  if (!tx) throw std::logic_error("sc_epochs: miner cannot fund the clients");
  expect_forward_transfers(*tx);
  engine_.mempool().transactions.push_back(std::move(*tx));
  // Finish epoch 0 without traffic; its certificate is queued for the
  // first measured block.
  while (mc_height() < kStartBlock + kEpochLen - 1) step();
  collect_confirmations();
}

void ScEpochs::expect_forward_transfers(const mainchain::Transaction& tx) {
  for (std::uint32_t i = 0; i < tx.forward_transfers.size(); ++i) {
    latus::Utxo u = ft_utxo(tx, i);
    forwarded_in_ += u.amount;
    if (ledger_.slot_free(u)) {
      ledger_.add_pending(owner_.at(u.addr), u);
    } else {
      // Slot collision: the sidechain refunds the payback address.
      expected_mc_growth_[tx.forward_transfers[i].receiver_metadata[1]] +=
          u.amount;
    }
  }
}

bool ScEpochs::submit_payment(std::size_t payer, bool merge) {
  std::size_t n_in = merge ? 2 : 1;
  if (ledger_.live_count(payer) < n_in) return false;
  std::vector<latus::Utxo> coins = ledger_.take(payer, n_in);
  Amount total = 0;
  for (const auto& u : coins) total += u.amount;
  std::size_t receiver = rng_.next_below(kClients);
  std::vector<latus::OutputSpec> outs;
  if (merge || total < 2) {
    outs.push_back({clients_[receiver].address(), total});
  } else {
    Amount pay = 1 + rng_.next_below(total - 1);
    outs.push_back({clients_[receiver].address(), pay});
    outs.push_back({clients_[payer].address(), total - pay});
  }
  latus::PaymentTx tx;
  {
    Tracer::Scope s(tracer_, "crypto.client_sign");
    tx = latus::build_payment(coins, clients_[payer], outs);
  }
  const bool distinct_slots =
      tx.outputs.size() < 2 || Ledger::slot(tx.outputs[0]) != Ledger::slot(tx.outputs[1]);
  for (const auto& out : tx.outputs) {
    if (!distinct_slots || !ledger_.slot_free(out)) {
      ledger_.untake(payer, coins);
      return false;
    }
  }
  for (const auto& out : tx.outputs) ledger_.add_pending(owner_.at(out.addr), out);
  submitted_.push_back(tx.id());
  node_->submit_payment(std::move(tx));
  return true;
}

void ScEpochs::submit_client_traffic() {
  // Payments: alternating split (1 in, 2 out) and merge (2 in, 1 out)
  // keeps the UTXO count steady. A client whose coins are short, or whose
  // outputs would land on a taken slot, passes the turn to the next.
  std::size_t sent = 0;
  for (std::size_t tries = 0; sent < kPaymentsPerBlock && tries < 4 * kClients;
       ++tries) {
    std::size_t payer = payment_counter_++ % kClients;
    if (submit_payment(payer, sent % 2 == 1)) ++sent;
  }
  // One backward transfer: a client burns its oldest coin to its own MC
  // address.
  for (std::size_t tries = 0; tries < kClients; ++tries) {
    std::size_t who = rng_.next_below(kClients);
    if (ledger_.live_count(who) < 2) continue;
    std::vector<latus::Utxo> coin = ledger_.take(who, 1);
    latus::BackwardTransferTx bt;
    {
      Tracer::Scope s(tracer_, "crypto.client_sign");
      bt = latus::build_backward_transfer(
          coin, clients_[who], {{clients_[who].address(), coin[0].amount}});
    }
    expected_mc_growth_[clients_[who].address()] += coin[0].amount;
    submitted_bts_.push_back(bt.id());
    node_->submit_backward_transfer(std::move(bt));
    break;
  }
}

void ScEpochs::step() {
  if (!opt_.trace) {
    engine_.step();
  } else {
    Tracer::Scope s(tracer_, "engine.step");
    mainchain::Block block;
    mainchain::Blockchain::SubmitResult result;
    {
      Tracer::Scope m(tracer_, "mainchain.mine_and_submit");
      result = miner_.mine_and_submit(engine_.mempool(), &block);
    }
    if (!result.accepted()) {
      throw std::logic_error("sc_epochs: mining failed: " + result.error);
    }
    engine_.mempool().clear();
    std::string err;
    {
      Tracer::Scope o(tracer_, "latus.observe_mc_block");
      err = node_->observe_mc_block(block);
    }
    if (err.empty()) {
      Tracer::Scope f(tracer_, "latus.forge_until_synced");
      err = node_->forge_until_synced();
    }
    if (!err.empty()) throw std::logic_error("sc_epochs: sidechain: " + err);
  }
  while (node_->pending_certificates() > 0) {
    snark::RecursionStats stats;
    auto t0 = Clock::now();
    std::optional<mainchain::WithdrawalCertificate> cert;
    {
      Tracer::Scope c(tracer_, "latus.build_certificate");
      cert = node_->build_certificate(&stats);
    }
    certificate_s_.push_back(seconds_since(t0));
    proof_totals_.base_proofs += stats.base_proofs;
    proof_totals_.merge_proofs += stats.merge_proofs;
    max_depth_ = std::max(max_depth_, stats.depth);
    engine_.mempool().certificates.push_back(std::move(*cert));
  }
}

void ScEpochs::collect_confirmations() {
  const auto& chain = node_->chain();
  for (; sc_blocks_seen_ < chain.size(); ++sc_blocks_seen_) {
    for (const auto& p : chain[sc_blocks_seen_].payments) confirmed_.push_back(p.id());
    for (const auto& b : chain[sc_blocks_seen_].bt_txs) confirmed_bts_.push_back(b.id());
  }
  ledger_.confirm_pending();
}

Result ScEpochs::run() {
  Result r;
  setup();
  const double setup_s = seconds_since_start();
  // The funding block's outputs must match the ledger before traffic.
  r.check("funding", checks::same_utxo_set(ledger_.all(), sc_utxos(node_->state())));

  std::map<Digest, Amount> mc_before;
  for (const auto& c : clients_) {
    mc_before[c.address()] = engine_.mc().state().balance_of(c.address());
  }
  const auto& reg = engine_.mc().registry();
  const auto vctx = engine_.mc().state().validation_context();
  if (!vctx) throw std::logic_error("sc_epochs: expected the deferred validation pipeline");
  const RegSnapshot mc0(reg);
  const RegSnapshot par0(vctx->registry());
  const std::uint64_t sc_height0 = node_->height();
  const std::size_t confirmed0 = confirmed_.size();
  const std::size_t certs0 = certificate_s_.size();
  const std::uint64_t mc_height0 = mc_height();
  const std::size_t span0 = tracer_.span_count();  // set-up spans excluded
  proof_totals_ = {};  // epoch 0's certificate belongs to set-up
  max_depth_ = 0;

  // Measured rounds: whole epochs until the time is up.
  auto t0 = Clock::now();
  std::size_t rounds = 0;
  double rss_mb = 0;
  std::vector<double> round_rates;  // confirmed payments per wall second
  do {
    auto t_round = Clock::now();
    const std::size_t confirmed_before = confirmed_.size();
    for (std::uint64_t k = 0; k < kEpochLen * kEpochsPerRound; ++k) {
      const std::uint64_t h = mc_height() + 1;  // height being mined
      auto ft = engine_.queue_forward_transfer(
          sc_id_, clients_[rng_.next_below(kClients)].address(),
          clients_[rng_.next_below(kClients)].address(),
          1'000 + rng_.next_below(9'000));
      if (!ft) throw std::logic_error("sc_epochs: miner out of funds");
      expect_forward_transfers(engine_.mempool().transactions.back());
      const bool boundary =
          h == node_->mc_params().epoch_end(node_->mc_params().epoch_of(h));
      if (!boundary) submit_client_traffic();
      step();
      collect_confirmations();
    }
    round_rates.push_back(static_cast<double>(confirmed_.size() - confirmed_before) /
                          seconds_since(t_round));
    ++rounds;
    if (rounds == kRssRounds) rss_mb = peak_rss_mb();
  } while ((seconds_since(t0) < opt_.seconds || rounds < kRssRounds) &&
           rounds < kMaxRounds);
  const double measured_s = seconds_since(t0);
  const std::size_t measured_confirmed = confirmed_.size() - confirmed0;
  const std::vector<double> cert_times(certificate_s_.begin() + certs0,
                                       certificate_s_.end());
  const std::uint64_t mc_blocks = mc_height() - mc_height0;

  // Per-layer figures cover the measured rounds only.
  if (opt_.trace) {
    const double n = static_cast<double>(rounds);
    set_layer(r, "crypto.client_sign_s", tracer_.total_s("crypto.client_sign", span0) / n);
    set_layer(r, "latus.forge_s", tracer_.total_s("latus.forge_until_synced", span0) / n);
    set_layer(r, "latus.observe_s", tracer_.total_s("latus.observe_mc_block", span0) / n);
    set_layer(r, "latus.sc_blocks", static_cast<double>(node_->height() - sc_height0) / n);
    set_layer(r, "latus.payments_confirmed", static_cast<double>(measured_confirmed) / n);
    set_layer(r, "latus.utxo_count", static_cast<double>(node_->state().mst().occupied_count()));
    set_layer(r, "snark.certificate_s", tracer_.total_s("latus.build_certificate", span0) / n);
    set_layer(r, "snark.base_proofs", static_cast<double>(proof_totals_.base_proofs) / n);
    set_layer(r, "snark.merge_proofs", static_cast<double>(proof_totals_.merge_proofs) / n);
    set_layer(r, "snark.recursion_depth", static_cast<double>(max_depth_));
    set_layer(r, "mainchain.mine_s", tracer_.total_s("mainchain.mine_and_submit", span0) / n);
    const RegSnapshot mc1(reg);
    const RegSnapshot par1(vctx->registry());
    auto delta = [](const RegSnapshot& a, const RegSnapshot& b, const char* name) {
      return b[name] - a[name];
    };
    set_layer(r, "mainchain.connect_block_s", delta(mc0, mc1, "mc.connect_block_ns.sum") * 1e-9 / n);
    const double checks = delta(par0, par1, "par.checks_executed");
    set_layer(r, "parallel.checks_executed", checks / n);
    set_layer(r, "parallel.checks_per_block", checks / static_cast<double>(mc_blocks));
    set_layer(r, "parallel.cache_hits", delta(par0, par1, "par.cache_hits") / n);
    set_layer(r, "parallel.batches", delta(par0, par1, "par.batches") / n);
    set_layer(r, "parallel.verify_sig_s",
              delta(par0, par1, "par.verify_ns{kind=signature}.sum") * 1e-9 / n);
    set_layer(r, "parallel.verify_snark_s",
              delta(par0, par1, "par.verify_ns{kind=snark}.sum") * 1e-9 / n);
    set_layer(r, "trace.overhead_pct", 100.0 * tracer_.overhead_s() / measured_s);
    fill_layers(r);
    tracer_.write(std::string(kTraceDir) + "/trace_sc_epochs_" + std::to_string(opt_.seed) + ".json");
  } else {
    set_end_to_end(r, setup_s, rss_mb, median(round_rates), median(cert_times));
  }

  // Let the last epoch's certificate pass its submission window.
  const std::uint64_t epochs_done = node_->mc_params().epoch_of(mc_height()) + 1;
  for (int i = 0; i < 2 * static_cast<int>(kEpochLen); ++i) {
    const auto* sc = engine_.mc().state().find_sidechain(sc_id_);
    if (sc->last_finalized_epoch && *sc->last_finalized_epoch + 1 >= epochs_done) break;
    step();
    collect_confirmations();
  }

  // ---- Checks against the clients' own records ----
  r.attempted = submitted_.size();
  {
    std::set<Digest> confirmed_set(confirmed_.begin(), confirmed_.end());
    std::size_t missing = 0;
    for (const Digest& id : submitted_) missing += confirmed_set.contains(id) ? 0 : 1;
    r.failed = missing;
  }
  r.check("payments", checks::confirmed_exactly_once(submitted_, confirmed_));
  r.check("backward transfers", checks::confirmed_exactly_once(submitted_bts_, confirmed_bts_));
  r.check("ledger", checks::same_utxo_set(ledger_.all(), sc_utxos(node_->state())));
  const auto* sc = engine_.mc().state().find_sidechain(sc_id_);
  Amount paid_out = 0;
  std::uint64_t certs_on_chain = 0;
  for (std::uint64_t h = 1; h <= mc_height(); ++h) {
    const auto* b = engine_.mc().find_block(engine_.mc().hash_at_height(h));
    for (const auto& cert : b->certificates) {
      if (cert.ledger_id != sc_id_) continue;
      ++certs_on_chain;
      paid_out += cert.total_withdrawn();
    }
  }
  r.check("SC supply", checks::sc_conserved(forwarded_in_, node_->state().total_supply(), paid_out));
  r.check("MC safeguard", checks::sc_conserved(forwarded_in_, sc->balance, paid_out));
  r.check("certificates", checks::epochs_certified(epochs_done, certs_on_chain,
                                                   sc->last_finalized_epoch, sc->ceased));
  std::map<Digest, Amount> mc_after;
  for (const auto& c : clients_) {
    mc_after[c.address()] = engine_.mc().state().balance_of(c.address());
  }
  r.check("BT receivers", checks::balances_grew_by(mc_before, mc_after, expected_mc_growth_));

  r.note("sc_payments_per_s", median(round_rates), "payments/s");
  r.note("sc_payments_per_s_whole_run", static_cast<double>(measured_confirmed) / measured_s,
         "payments/s");
  r.note("certificate_s", median(cert_times), "s");
  r.note("epochs_measured", static_cast<double>(rounds * kEpochsPerRound), "count");
  r.note("payments_confirmed", static_cast<double>(measured_confirmed), "count");
  r.note("sc_utxos", static_cast<double>(node_->state().mst().occupied_count()), "count");
  r.note("setup_s", setup_s, "s");
  r.note("peak_rss_mb_after_4_epochs", rss_mb, "MB");
  r.note("peak_rss_mb_whole_run", peak_rss_mb(), "MB");
  return r;
}

}  // namespace

Result run_sc_epochs(const Options& opt) { return ScEpochs(opt).run(); }

}  // namespace zbench

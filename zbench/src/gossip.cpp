// gossip_128: 128 NetNodes on the full-mesh SimNet with the default link
// model (latency 1..4 ticks, no drops) and trace recording off. Blocks
// hold only coinbases and are mined at seeded random nodes on a Poisson
// schedule in simulated time (open loop in sim time), with a mean gap
// near the link latency so that some blocks race and cause reorgs.
//
// A round is one fresh cluster driven through its own schedule
// (kBlocksPerRound blocks; round r's schedule and SimNet seed derive from
// the run seed and r, so a run averages over many race patterns) and
// drained, then node 0 mines a closing block on top so every tie
// resolves. Each block's propagation is timed from its mining to the tick
// (and the wall-clock moment) at which the last of the 128 nodes stores
// it. The tick figures are those of round 0, so they repeat exactly for a
// seed however many rounds a run completes.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "checks.hpp"
#include "mainchain/codec.hpp"
#include "net/scenario.hpp"
#include "workloads.hpp"

namespace zbench {

namespace {

using namespace zendoo;
using crypto::Digest;

constexpr std::size_t kNodes = 128;
constexpr std::size_t kBlocksPerRound = 96;
/// Mean gap between blocks, in ticks (links take 1..4 ticks).
constexpr double kMeanGapTicks = 2.0;
/// peak_rss_mb is read after this many rounds (equal work).
constexpr std::size_t kRssRounds = 1;

struct Scheduled {
  net::SimTime tick = 0;
  std::size_t miner = 0;
};

/// Seed of round `round` of run seed `seed`.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return crypto::Hasher(crypto::Domain::kGeneric)
      .write_str("zbench-gossip")
      .write_u64(seed)
      .write_u64(round)
      .finalize()
      .as_u256()
      .limb[0];
}

/// Poisson arrivals in sim time: exponential gaps rounded down to ticks.
std::vector<Scheduled> schedule(std::uint64_t seed) {
  crypto::Rng rng(seed);
  std::vector<Scheduled> out;
  double t = 1;
  for (std::size_t i = 0; i < kBlocksPerRound; ++i) {
    double u = (static_cast<double>(rng.next_below(1ULL << 52)) + 0.5) /
               static_cast<double>(1ULL << 52);
    t += -std::log(u) * kMeanGapTicks;
    out.push_back({static_cast<net::SimTime>(t), rng.next_below(kNodes)});
  }
  return out;
}

struct Pending {
  Digest hash;
  net::SimTime mined_tick = 0;
  Clock::time_point mined_at;
  std::size_t next_node = 0;  ///< nodes [0, next_node) store the block
};

struct RoundResult {
  std::vector<Digest> mined;
  std::vector<double> ticks;   ///< per block: mining -> stored everywhere
  std::vector<double> wall_s;  ///< same, wall clock
  double sim_wall_s = 0;       ///< wall time driving the simulation
  std::size_t complete = 0;    ///< blocks stored by all nodes
};

class Gossip {
 public:
  explicit Gossip(const Options& opt)
      : opt_(opt), tracer_(opt.trace) {}

  Result run();

 private:
  RoundResult run_round(net::NodeCluster& cluster, std::size_t round,
                        const std::vector<Scheduled>& plan);
  /// Advances every pending block's "stored by" cursor; records the
  /// blocks that reached every node.
  void poll(net::NodeCluster& cluster, std::vector<Pending>& pending,
            RoundResult& out);
  void mine(net::NodeCluster& cluster, std::size_t miner,
            std::vector<Pending>& pending, RoundResult& out);
  /// Registry totals: the SimNet's, plus (`nodes`) the sum over every
  /// node's mainchain and network registries.
  std::vector<std::pair<std::string, double>> snapshot(net::NodeCluster& cluster,
                                                       bool nodes);

  const Options& opt_;
  Tracer tracer_;
  std::vector<std::vector<std::uint8_t>> wire_;  // traced run: mined blocks
};

void Gossip::poll(net::NodeCluster& cluster, std::vector<Pending>& pending,
                  RoundResult& out) {
  Tracer::Scope s(tracer_, "bench.poll_storage");
  for (auto it = pending.begin(); it != pending.end();) {
    while (it->next_node < kNodes &&
           cluster[it->next_node].chain().has_block(it->hash)) {
      ++it->next_node;
    }
    if (it->next_node == kNodes) {
      out.ticks.push_back(static_cast<double>(cluster.net.now() - it->mined_tick));
      out.wall_s.push_back(seconds_since(it->mined_at));
      ++out.complete;
      it = pending.erase(it);
    } else {
      ++it;
    }
  }
}

void Gossip::mine(net::NodeCluster& cluster, std::size_t miner,
                  std::vector<Pending>& pending, RoundResult& out) {
  mainchain::Block block;
  {
    Tracer::Scope s(tracer_, "mainchain.mine");
    block = cluster[miner].mine();
  }
  Digest hash = block.hash();
  out.mined.push_back(hash);
  pending.push_back({hash, cluster.net.now(), Clock::now(), 0});
  if (opt_.trace) wire_.push_back(mainchain::codec::encode_block(block));
}

std::vector<std::pair<std::string, double>> Gossip::snapshot(
    net::NodeCluster& cluster, bool nodes) {
  std::vector<std::pair<std::string, double>> row;
  const RegSnapshot sim(cluster.net.registry());
  for (const char* name : {"sim.events_processed", "sim.delivered", "sim.bytes_queued"}) {
    row.emplace_back(name, sim[name]);
  }
  if (!nodes) return row;
  const char* mc_names[] = {"mc.connect_block_ns.sum", "mc.blocks_connected", "mc.reorgs"};
  const char* net_names[] = {"net.duplicates", "net.wire_dedup_hits",
                             "net.encode_cache_hits", "net.stalled_rerequests"};
  for (const char* name : mc_names) row.emplace_back(name, 0.0);
  for (const char* name : net_names) row.emplace_back(name, 0.0);
  for (auto& node : cluster.nodes) {
    const RegSnapshot mc(node->chain().registry());
    const RegSnapshot nt(node->registry());
    std::size_t i = 3;
    for (const char* name : mc_names) row[i++].second += mc[name];
    for (const char* name : net_names) row[i++].second += nt[name];
  }
  return row;
}

RoundResult Gossip::run_round(net::NodeCluster& cluster, std::size_t round,
                              const std::vector<Scheduled>& plan) {
  RoundResult out;
  std::vector<Pending> pending;
  auto t0 = Clock::now();
  // Per mined block: the simulator's counters (one registry). The
  // per-node sums are taken once per round, after the drain.
  auto snap = [&](const std::string& label) {
    if (!opt_.trace) return;
    auto tc = Clock::now();
    tracer_.add_counters("round " + std::to_string(round) + " " + label,
                         snapshot(cluster, false));
    tracer_.add_overhead(seconds_since(tc));
  };
  // Process the simulation tick by tick so completion is seen at the tick
  // it happens; without a target, run until no event is left.
  auto advance = [&](std::optional<net::SimTime> target) {
    while (true) {
      auto next = cluster.net.next_event_time();
      if (!next || (target && *next > *target)) break;
      {
        Tracer::Scope s(tracer_, "sim.run_until");
        cluster.net.run_until(*next);
      }
      poll(cluster, pending, out);
    }
    if (target) cluster.net.run_until(*target);
  };
  for (std::size_t i = 0; i < plan.size(); ++i) {
    advance(plan[i].tick);
    snap("block " + std::to_string(i));
    mine(cluster, plan[i].miner, pending, out);
  }
  advance(std::nullopt);
  // Closing block: strictly higher than every branch, so all tips agree.
  snap("closing block");
  mine(cluster, 0, pending, out);
  advance(std::nullopt);
  snap("end");
  out.sim_wall_s = seconds_since(t0);
  return out;
}

Result Gossip::run() {
  Result r;
  std::uint64_t rounds = 0;
  auto make_cluster = [&](std::uint64_t round) {
    auto c = std::make_unique<net::NodeCluster>(round_seed(opt_.seed, round), kNodes);
    c->net.set_trace_mode(net::TraceMode::kOff);
    return c;
  };
  // Set-up: one warm-up round on a cluster of its own (first-touch page
  // faults, allocator growth), then the first measured round's cluster.
  // Later rounds build theirs between rounds, outside the timed
  // simulation.
  {
    const std::uint64_t warm_up = ~std::uint64_t{0};
    auto warm = make_cluster(warm_up);
    run_round(*warm, warm_up, schedule(round_seed(opt_.seed, warm_up) + 1));
    wire_.clear();
  }
  auto cluster = make_cluster(0);
  const double setup_s = seconds_since_start();
  const std::size_t span0 = tracer_.span_count();  // set-up spans excluded

  std::vector<double> ticks, wall_s;
  std::uint64_t complete = 0, mined = 0;
  double sim_wall_s = 0, rss_mb = 0;
  std::vector<double> round_rates;  // blocks stored everywhere per wall second
  std::map<std::string, double> totals;  // traced: per-round figures, summed
  std::map<std::string, double> round0;  // traced: round 0's figures
  auto t_measure = Clock::now();
  do {
    if (!cluster) {
      Tracer::Scope s(tracer_, "bench.cluster_build");
      cluster = make_cluster(rounds);
    }
    RoundResult rr;
    {
      Tracer::Scope s(tracer_, "gossip.round");
      rr = run_round(*cluster, rounds, schedule(round_seed(opt_.seed, rounds) + 1));
    }
    ++rounds;
    if (rounds == 1) ticks = rr.ticks;
    wall_s.insert(wall_s.end(), rr.wall_s.begin(), rr.wall_s.end());
    complete += rr.complete;
    mined += rr.mined.size();
    sim_wall_s += rr.sim_wall_s;
    round_rates.push_back(static_cast<double>(rr.complete) / rr.sim_wall_s);

    // ---- checks ----
    const std::string round = "round " + std::to_string(rounds);
    r.check(round, checks::stored_everywhere(
                       rr.mined, kNodes, [&](std::size_t n, const Digest& h) {
                         return (*cluster)[n].chain().has_block(h);
                       }));
    std::vector<Digest> tips;
    for (auto& node : cluster->nodes) tips.push_back(node->tip());
    r.check(round, checks::tips_agree(tips));

    if (opt_.trace) {
      auto tc = Clock::now();
      auto row = snapshot(*cluster, true);
      for (const auto& [k, v] : row) totals[k] += v;
      if (rounds == 1) round0.insert(row.begin(), row.end());
      tracer_.add_counters("round " + std::to_string(rounds - 1) + " totals", std::move(row));
      tracer_.add_overhead(seconds_since(tc));
      Tracer::Scope s(tracer_, "mainchain.codec_decode");
      totals["codec_decode_s"] += decode_seconds(wire_);
      wire_.clear();
    }
    if (rounds == kRssRounds) rss_mb = peak_rss_mb();
    {
      Tracer::Scope s(tracer_, "bench.cluster_teardown");
      cluster.reset();
    }
  } while (seconds_since(t_measure) < opt_.seconds || rounds < kRssRounds);
  const double measured_s = seconds_since(t_measure);

  r.attempted = mined;
  r.failed = mined - complete;
  const int tail_p = tail_percentile(ticks.size());
  const double p50_ticks = median(ticks);
  const double tail_ticks = tail_p < 0 ? p50_ticks : quantile(ticks, tail_p / 100.0);
  // Rounds offer nearly the same work (a block's flood delivers 127^2
  // messages whatever the schedule), so the median round is the figure;
  // it shrugs off bursts of host noise.
  const double blocks_per_s = median(round_rates);

  if (opt_.trace) {
    // Times are means over the run's rounds; counts are round 0's, so
    // they repeat exactly for a seed however many rounds a run completes.
    const double n = static_cast<double>(rounds);
    const double blocks0 = static_cast<double>(kBlocksPerRound + 1);
    set_layer(r, "mainchain.mine_s", tracer_.total_s("mainchain.mine", span0) / n);
    set_layer(r, "mainchain.connect_block_s", totals["mc.connect_block_ns.sum"] * 1e-9 / n);
    set_layer(r, "mainchain.codec_decode_s", totals["codec_decode_s"] / n);
    set_layer(r, "sim.events_per_s", totals["sim.events_processed"] / sim_wall_s);
    set_layer(r, "mainchain.reorgs", round0["mc.reorgs"]);
    set_layer(r, "sim.events", round0["sim.events_processed"]);
    set_layer(r, "sim.bytes_queued", round0["sim.bytes_queued"]);
    set_layer(r, "sim.propagation_ticks_p50", p50_ticks);
    set_layer(r, "sim.propagation_ticks_tail", tail_ticks);
    set_layer(r, "net.msgs_delivered", round0["sim.delivered"]);
    set_layer(r, "net.msgs_per_block", round0["sim.delivered"] / blocks0);
    set_layer(r, "net.duplicates", round0["net.duplicates"]);
    set_layer(r, "net.wire_dedup_hits", round0["net.wire_dedup_hits"]);
    set_layer(r, "net.encode_cache_hits", round0["net.encode_cache_hits"]);
    set_layer(r, "net.stalled_rerequests", round0["net.stalled_rerequests"]);
    set_layer(r, "trace.overhead_pct", 100.0 * tracer_.overhead_s() / measured_s);
    fill_layers(r);
    tracer_.write(std::string(kTraceDir) + "/trace_gossip_128_" + std::to_string(opt_.seed) + ".json");
  } else {
    set_end_to_end(r, setup_s, rss_mb, blocks_per_s, median(wall_s));
  }
  r.note("gossip_blocks_per_s", blocks_per_s, "blocks/s");
  r.note("propagation_ticks_p50", p50_ticks, "ticks");
  r.note(tail_p < 0 ? "propagation_ticks_tail(p50: <40 blocks)"
                    : "propagation_ticks_p" + std::to_string(tail_p),
         tail_ticks, "ticks");
  r.note("propagation_wall_s_p50", median(wall_s), "s");
  r.note("blocks_mined", static_cast<double>(mined), "count");
  r.note("rounds", static_cast<double>(rounds), "count");
  r.note("setup_s", setup_s, "s");
  r.note("peak_rss_mb", rss_mb, "MB");
  return r;
}

}  // namespace

Result run_gossip(const Options& opt) { return Gossip(opt).run(); }

}  // namespace zbench

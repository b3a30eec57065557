// Correctness checks of the benchmark. Each compares what the program
// produced against a result the benchmark computed on its own (its
// client-side ledger, the coins it issued, the blocks it mined) or a
// property every correct run has. Each returns "" on success, otherwise
// a one-line diagnostic; the workloads count a diagnostic as an incorrect
// run. Kept free of workload state so the tests can feed them deliberately
// wrong results.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "latus/state.hpp"
#include "mainchain/types.hpp"

namespace zbench::checks {

using zendoo::crypto::Digest;
using zendoo::mainchain::Address;
using zendoo::mainchain::Amount;

/// Every submitted payment id appears exactly once among the confirmed
/// ids, and nothing else was confirmed.
[[nodiscard]] std::string confirmed_exactly_once(
    const std::vector<Digest>& submitted, const std::vector<Digest>& confirmed);

/// The sidechain's UTXO set equals the client-side ledger (as multisets
/// of (addr, amount, nonce)).
[[nodiscard]] std::string same_utxo_set(
    std::vector<zendoo::latus::Utxo> ledger,
    std::vector<zendoo::latus::Utxo> sidechain);

/// Sidechain coin conservation: forwarded in = SC supply + paid out.
[[nodiscard]] std::string sc_conserved(Amount forwarded_in, Amount sc_supply,
                                       Amount paid_out);

/// Each address's balance grew by exactly its expected amount.
[[nodiscard]] std::string balances_grew_by(
    const std::map<Address, Amount>& before,
    const std::map<Address, Amount>& after,
    const std::map<Address, Amount>& expected_growth);

/// Every completed epoch's certificate was accepted (one per epoch on the
/// active chain) and the last one finalized, and the sidechain is alive.
[[nodiscard]] std::string epochs_certified(
    std::uint64_t epochs_completed, std::uint64_t certificates_on_chain,
    std::optional<std::uint64_t> last_finalized_epoch, bool ceased);

/// Two independently validated mainchain states agree: tip, full-state
/// fingerprint (UTXO set, sidechain records, nullifiers, active chain),
/// UTXO count and every sidechain balance.
struct ChainSummary {
  Digest tip;
  Digest fingerprint;
  std::uint64_t utxo_count = 0;
  std::map<Digest, Amount> sidechain_balances;
};
[[nodiscard]] std::string same_chain_state(const ChainSummary& origin,
                                           const ChainSummary& synced);

/// Mainchain coin conservation: coins held in UTXOs plus coins locked in
/// sidechain safeguards equal the subsidies issued.
[[nodiscard]] std::string mc_conserved(Amount utxo_total,
                                       Amount sidechain_locked,
                                       Amount subsidies_issued);

/// Every node stores every mined block.
[[nodiscard]] std::string stored_everywhere(
    const std::vector<Digest>& mined, std::size_t nodes,
    const std::function<bool(std::size_t node, const Digest&)>& has_block);

/// All nodes report the same tip.
[[nodiscard]] std::string tips_agree(const std::vector<Digest>& tips);

}  // namespace zbench::checks

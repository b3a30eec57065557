#include "checks.hpp"

#include <algorithm>
#include <unordered_map>

namespace zbench::checks {

namespace {

std::string hex8(const Digest& d) { return d.to_hex().substr(0, 8); }

}  // namespace

std::string confirmed_exactly_once(const std::vector<Digest>& submitted,
                                   const std::vector<Digest>& confirmed) {
  std::unordered_map<Digest, int, zendoo::crypto::DigestHash> count;
  for (const Digest& id : submitted) count[id] += 0;
  for (const Digest& id : confirmed) {
    auto it = count.find(id);
    if (it == count.end()) {
      return "payment " + hex8(id) + " confirmed but never submitted";
    }
    ++it->second;
  }
  for (const Digest& id : submitted) {
    int n = count[id];
    if (n != 1) {
      return "payment " + hex8(id) + " confirmed " + std::to_string(n) +
             " times";
    }
  }
  return "";
}

std::string same_utxo_set(std::vector<zendoo::latus::Utxo> ledger,
                          std::vector<zendoo::latus::Utxo> sidechain) {
  auto by_nonce = [](const zendoo::latus::Utxo& a,
                     const zendoo::latus::Utxo& b) { return a.nonce < b.nonce; };
  std::sort(ledger.begin(), ledger.end(), by_nonce);
  std::sort(sidechain.begin(), sidechain.end(), by_nonce);
  if (ledger.size() != sidechain.size()) {
    return "sidechain holds " + std::to_string(sidechain.size()) +
           " UTXOs, the client ledger " + std::to_string(ledger.size());
  }
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    if (!(ledger[i] == sidechain[i])) {
      return "UTXO " + hex8(ledger[i].nonce) + " differs from the ledger";
    }
  }
  return "";
}

std::string sc_conserved(Amount forwarded_in, Amount sc_supply,
                         Amount paid_out) {
  if (forwarded_in == sc_supply + paid_out) return "";
  return "sidechain coins not conserved: forwarded " +
         std::to_string(forwarded_in) + " != supply " +
         std::to_string(sc_supply) + " + paid out " + std::to_string(paid_out);
}

std::string balances_grew_by(const std::map<Address, Amount>& before,
                             const std::map<Address, Amount>& after,
                             const std::map<Address, Amount>& expected_growth) {
  for (const auto& [addr, growth] : expected_growth) {
    auto b = before.find(addr);
    auto a = after.find(addr);
    Amount was = b == before.end() ? 0 : b->second;
    Amount now = a == after.end() ? 0 : a->second;
    if (now < was || now - was != growth) {
      return "MC balance of " + hex8(addr) + " grew by " +
             std::to_string(now >= was ? now - was : 0) + ", expected " +
             std::to_string(growth);
    }
  }
  return "";
}

std::string epochs_certified(std::uint64_t epochs_completed,
                             std::uint64_t certificates_on_chain,
                             std::optional<std::uint64_t> last_finalized_epoch,
                             bool ceased) {
  if (ceased) return "sidechain ceased";
  if (epochs_completed == 0) return "no epoch completed";
  if (certificates_on_chain != epochs_completed) {
    return std::to_string(certificates_on_chain) +
           " certificates on the active chain for " +
           std::to_string(epochs_completed) + " completed epochs";
  }
  if (!last_finalized_epoch || *last_finalized_epoch + 1 != epochs_completed) {
    return "last finalized epoch is " +
           (last_finalized_epoch ? std::to_string(*last_finalized_epoch)
                                 : std::string("none")) +
           ", expected " + std::to_string(epochs_completed - 1);
  }
  return "";
}

std::string same_chain_state(const ChainSummary& origin,
                             const ChainSummary& synced) {
  if (origin.tip != synced.tip) {
    return "synced tip " + hex8(synced.tip) + " != origin tip " +
           hex8(origin.tip);
  }
  if (origin.utxo_count != synced.utxo_count) {
    return "synced UTXO count " + std::to_string(synced.utxo_count) +
           " != origin " + std::to_string(origin.utxo_count);
  }
  if (origin.sidechain_balances != synced.sidechain_balances) {
    return "sidechain balances differ from the origin";
  }
  if (origin.fingerprint != synced.fingerprint) {
    return "state fingerprint differs from the origin";
  }
  return "";
}

std::string mc_conserved(Amount utxo_total, Amount sidechain_locked,
                         Amount subsidies_issued) {
  if (utxo_total + sidechain_locked == subsidies_issued) return "";
  return "mainchain coins not conserved: UTXOs " + std::to_string(utxo_total) +
         " + sidechain locked " + std::to_string(sidechain_locked) +
         " != subsidies " + std::to_string(subsidies_issued);
}

std::string stored_everywhere(
    const std::vector<Digest>& mined, std::size_t nodes,
    const std::function<bool(std::size_t, const Digest&)>& has_block) {
  for (const Digest& hash : mined) {
    for (std::size_t n = 0; n < nodes; ++n) {
      if (!has_block(n, hash)) {
        return "node " + std::to_string(n) + " lacks block " + hex8(hash);
      }
    }
  }
  return "";
}

std::string tips_agree(const std::vector<Digest>& tips) {
  for (std::size_t i = 1; i < tips.size(); ++i) {
    if (tips[i] != tips[0]) {
      return "node " + std::to_string(i) + " tip " + hex8(tips[i]) +
             " != node 0 tip " + hex8(tips[0]);
    }
  }
  return "";
}

}  // namespace zbench::checks

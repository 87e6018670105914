#include "core/config.h"

#include <sstream>

namespace p2pex {

void SimConfig::validate() const {
  auto fail = [](const std::string& msg) { throw ConfigError(msg); };

  if (num_peers < 2) fail("num_peers must be at least 2");
  if (nonsharing_fraction < 0.0 || nonsharing_fraction > 1.0)
    fail("nonsharing_fraction must be in [0, 1]");
  if (slot_kbps <= 0.0) fail("slot_kbps must be positive");
  if (upload_capacity_kbps < slot_kbps)
    fail("upload capacity below one slot — peers could never serve");
  if (download_capacity_kbps < slot_kbps)
    fail("download capacity below one slot — peers could never download");
  if (catalog.num_categories == 0) fail("catalog needs categories");
  if (min_categories_per_peer < 1 ||
      min_categories_per_peer > max_categories_per_peer)
    fail("bad categories-per-peer range");
  if (max_categories_per_peer > catalog.num_categories)
    fail("categories_per_peer exceeds catalog categories");
  if (min_storage_objects < 1 || min_storage_objects > max_storage_objects)
    fail("bad storage range");
  if (initial_fill_fraction <= 0.0 || initial_fill_fraction > 1.0)
    fail("initial_fill_fraction must be in (0, 1]");
  if (irq_capacity < 1) fail("irq_capacity must be positive");
  if (max_pending < 1) fail("max_pending must be positive");
  if (lookup_fraction <= 0.0 || lookup_fraction > 1.0)
    fail("lookup_fraction must be in (0, 1]");
  if (max_providers_per_request < 1)
    fail("max_providers_per_request must be positive");
  if (max_ring_size < 2 && policy != ExchangePolicy::kNoExchange)
    fail("max_ring_size must be >= 2 when exchanges are enabled");
  if (max_ring_attempts_per_search < 1)
    fail("max_ring_attempts_per_search must be positive");
  if (bloom_fpp <= 0.0 || bloom_fpp >= 1.0)
    fail("bloom_fpp must be in (0, 1)");
  if (bloom_hop_budget < 1) fail("bloom_hop_budget must be positive");
  if (liar_fraction < 0.0 || liar_fraction > 1.0)
    fail("liar_fraction must be in [0, 1]");
  if (search_interval <= 0.0) fail("search_interval must be positive");
  if (eviction_interval <= 0.0) fail("eviction_interval must be positive");
  if (sim_duration <= 0.0) fail("sim_duration must be positive");
  if (warmup_fraction < 0.0 || warmup_fraction >= 1.0)
    fail("warmup_fraction must be in [0, 1)");
  if (discovery.gossip_interval <= 0.0)
    fail("gossip_interval must be positive");
  if (discovery.gossip_digest_cap < 1)
    fail("gossip_digest_cap must be positive");
  if (discovery.pex_cache_cap < discovery.gossip_digest_cap)
    fail("pex_cache_cap must be at least gossip_digest_cap");
  if (discovery.pex_entry_ttl <= 0.0)
    fail("pex_entry_ttl must be positive");
  if (discovery.dht_bucket_size < 1)
    fail("dht_bucket_size must be positive");
  if (discovery.dht_alpha < 1) fail("dht_alpha must be positive");
  if (discovery.dht_hop_budget < 1)
    fail("dht_hop_budget must be positive");
  if (faults.session_fault_rate < 0.0)
    fail("session_fault_rate must be non-negative");
  if (faults.lookup_loss < 0.0 || faults.lookup_loss >= 1.0)
    fail("lookup_loss must be in [0, 1)");
  if (faults.stale_lookup_ttl < 0.0)
    fail("stale_lookup_ttl must be non-negative");
  if (faults.retry.base_timeout <= 0.0)
    fail("retry base_timeout must be positive");
  if (faults.retry.backoff < 1.0)
    fail("retry backoff must be at least 1");
  if (faults.retry.jitter < 0.0 || faults.retry.jitter >= 1.0)
    fail("retry jitter must be in [0, 1)");
  if (faults.retry.max_attempts < 1)
    fail("retry max_attempts must be positive");
  if (threads < 1 || threads > kMaxThreads)
    fail("threads must be in [1, " + std::to_string(kMaxThreads) + "]");
}

std::string SimConfig::describe() const {
  // Every knob that shapes a run appears here: bench headers print this
  // line as the experiment's operating point, so an omitted knob means a
  // silently mislabelled figure (a test pins the exact output).
  std::ostringstream os;
  os << "peers=" << num_peers
     << " nonsharing=" << nonsharing_fraction
     << " dl=" << download_capacity_kbps << "kbps"
     << " ul=" << upload_capacity_kbps << "kbps"
     << " slot=" << slot_kbps << "kbps"
     << " categories=" << catalog.num_categories
     << " f_cat=" << catalog.category_popularity_f
     << " f_obj=" << catalog.object_popularity_f
     << " object=" << catalog.object_size / 1000000 << "MB"
     << " storage=[" << min_storage_objects << "," << max_storage_objects << "]"
     << " cats/peer=[" << min_categories_per_peer << ","
     << max_categories_per_peer << "]"
     << " fill=" << initial_fill_fraction
     << " irq=" << irq_capacity
     << " pending=" << max_pending
     << " lookup=" << lookup_fraction
     << " providers=" << max_providers_per_request
     << " backend=" << discovery::to_string(discovery.backend)
     << " gossip=[" << discovery.gossip_interval << "s,"
     << discovery.gossip_digest_cap << "," << discovery.pex_cache_cap << ","
     << discovery.pex_entry_ttl << "s]"
     << " dht=[" << discovery.dht_bucket_size << "," << discovery.dht_alpha
     << "," << discovery.dht_hop_budget << "]"
     << " policy=" << policy_label(policy, max_ring_size)
     << " attempts=" << max_ring_attempts_per_search
     << " scheduler=" << to_string(scheduler)
     << " liars=" << liar_fraction
     << " preemption=" << (preemption ? "on" : "off")
     << " tree=" << to_string(tree_mode)
     << " bloom=[" << bloom_expected_per_level << "," << bloom_fpp << ","
     << bloom_hop_budget << "]"
     << " search=" << search_interval << "s"
     << " evict=" << eviction_interval << "s"
     << " retry=" << request_retry_interval << "s"
     << " fault_rate=" << faults.session_fault_rate
     << " lookup_loss=" << faults.lookup_loss
     << " stale_ttl=" << faults.stale_lookup_ttl << "s"
     << " retry_policy=[" << faults.retry.base_timeout << "s,x"
     << faults.retry.backoff << ",j" << faults.retry.jitter << ","
     << faults.retry.max_attempts << "]"
     << " duration=" << sim_duration << "s"
     << " warmup=" << warmup_fraction
     << " seed=" << seed
     << " threads=" << threads;
  return os.str();
}

}  // namespace p2pex

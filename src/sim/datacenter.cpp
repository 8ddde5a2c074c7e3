#include "sim/datacenter.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace megh {

Datacenter::Datacenter(std::vector<HostSpec> hosts, std::vector<VmSpec> vms)
    : hosts_(std::move(hosts)), vms_(std::move(vms)) {
  MEGH_REQUIRE(!hosts_.empty(), "datacenter needs at least one host");
  vm_host_.assign(vms_.size(), kUnplaced);
  host_vms_.assign(hosts_.size(), {});
  host_ram_used_.assign(hosts_.size(), 0.0);
  vm_util_.assign(vms_.size(), 0.0);
  host_demand_mips_.assign(hosts_.size(), 0.0);
  for (const auto& h : hosts_) {
    MEGH_REQUIRE(h.mips > 0 && h.ram_mb > 0 && h.bw_mbps > 0,
                 "host spec must have positive capacities");
  }
  for (const auto& v : vms_) {
    MEGH_REQUIRE(v.mips > 0 && v.ram_mb > 0 && v.bw_mbps > 0,
                 "vm spec must have positive capacities");
  }
}

void Datacenter::check_host(int host) const {
  MEGH_ASSERT(host >= 0 && host < num_hosts(), "host index out of range");
}

void Datacenter::check_vm(int vm) const {
  MEGH_ASSERT(vm >= 0 && vm < num_vms(), "vm index out of range");
}

const HostSpec& Datacenter::host_spec(int host) const {
  check_host(host);
  return hosts_[static_cast<std::size_t>(host)];
}

const VmSpec& Datacenter::vm_spec(int vm) const {
  check_vm(vm);
  return vms_[static_cast<std::size_t>(vm)];
}

int Datacenter::host_of(int vm) const {
  check_vm(vm);
  return vm_host_[static_cast<std::size_t>(vm)];
}

std::span<const int> Datacenter::vms_on(int host) const {
  check_host(host);
  return host_vms_[static_cast<std::size_t>(host)];
}

double Datacenter::host_ram_used(int host) const {
  check_host(host);
  return host_ram_used_[static_cast<std::size_t>(host)];
}

bool Datacenter::fits(int vm, int host) const {
  check_vm(vm);
  check_host(host);
  return host_ram_used_[static_cast<std::size_t>(host)] +
             vms_[static_cast<std::size_t>(vm)].ram_mb <=
         hosts_[static_cast<std::size_t>(host)].ram_mb + 1e-9;
}

void Datacenter::place(int vm, int host) {
  check_vm(vm);
  check_host(host);
  MEGH_REQUIRE(vm_host_[static_cast<std::size_t>(vm)] == kUnplaced,
               strf("place: vm %d is already placed", vm));
  MEGH_REQUIRE(fits(vm, host),
               strf("place: vm %d does not fit on host %d by RAM", vm, host));
  vm_host_[static_cast<std::size_t>(vm)] = host;
  auto& list = host_vms_[static_cast<std::size_t>(host)];
  if (list.empty()) ++active_host_count_;
  list.push_back(vm);
  recompute_host_ram(host);
  recompute_host_demand(host);
  debug_check_cache();
}

bool Datacenter::migrate(int vm, int host) {
  check_vm(vm);
  check_host(host);
  const int current = vm_host_[static_cast<std::size_t>(vm)];
  MEGH_REQUIRE(current != kUnplaced, strf("migrate: vm %d is not placed", vm));
  if (current == host) return false;
  if (!fits(vm, host)) return false;
  unplace(vm);
  place(vm, host);
  return true;
}

void Datacenter::unplace(int vm) {
  check_vm(vm);
  const int host = vm_host_[static_cast<std::size_t>(vm)];
  MEGH_REQUIRE(host != kUnplaced, strf("unplace: vm %d is not placed", vm));
  auto& list = host_vms_[static_cast<std::size_t>(host)];
  const auto it = std::find(list.begin(), list.end(), vm);
  MEGH_ASSERT(it != list.end(), "datacenter invariant: vm missing from host list");
  list.erase(it);
  if (list.empty()) --active_host_count_;
  vm_host_[static_cast<std::size_t>(vm)] = kUnplaced;
  recompute_host_ram(host);
  recompute_host_demand(host);
  debug_check_cache();
}

void Datacenter::set_demands(std::span<const double> vm_utilization,
                             const ShardExecutor* exec) {
  MEGH_REQUIRE(vm_utilization.size() == vm_util_.size(),
               "set_demands: size mismatch");
  for (std::size_t i = 0; i < vm_utilization.size(); ++i) {
    const double u = vm_utilization[i];
    MEGH_ASSERT(u >= 0.0 && u <= 1.0, "vm utilization must lie in [0,1]");
    vm_util_[i] = u;
  }
  // Every VM's demand may have changed: refresh each host's sum once. Each
  // refresh reads only that host's VM list and writes only that host's
  // cached sum, so sharding the loop cannot change any value.
  if (exec != nullptr) {
    MEGH_ASSERT(exec->plan().count() == num_hosts(),
                "set_demands: executor plan does not cover the fleet");
    exec->for_items([this](int h) { recompute_host_demand(h); });
  } else {
    for (int h = 0; h < num_hosts(); ++h) recompute_host_demand(h);
  }
  debug_check_cache();
}

double Datacenter::vm_utilization(int vm) const {
  check_vm(vm);
  return vm_util_[static_cast<std::size_t>(vm)];
}

double Datacenter::vm_demand_mips(int vm) const {
  check_vm(vm);
  return vm_util_[static_cast<std::size_t>(vm)] *
         vms_[static_cast<std::size_t>(vm)].mips;
}

double Datacenter::host_demand_mips(int host) const {
  check_host(host);
  return host_demand_mips_[static_cast<std::size_t>(host)];
}

double Datacenter::host_utilization(int host) const {
  check_host(host);
  return host_demand_mips_[static_cast<std::size_t>(host)] /
         hosts_[static_cast<std::size_t>(host)].mips;
}

double Datacenter::vm_service_fraction(int vm) const {
  check_vm(vm);
  const int host = vm_host_[static_cast<std::size_t>(vm)];
  if (host == kUnplaced) return 0.0;
  const double demand = host_demand_mips_[static_cast<std::size_t>(host)];
  const double capacity = hosts_[static_cast<std::size_t>(host)].mips;
  if (demand <= capacity || demand <= 0.0) return 1.0;
  return capacity / demand;
}

bool Datacenter::is_active(int host) const {
  check_host(host);
  return !host_vms_[static_cast<std::size_t>(host)].empty();
}

int Datacenter::active_host_count() const { return active_host_count_; }

std::vector<double> Datacenter::all_host_utilization() const {
  std::vector<double> out;
  all_host_utilization(out);
  return out;
}

void Datacenter::all_host_utilization(std::vector<double>& out,
                                      const ShardExecutor* exec) const {
  out.resize(static_cast<std::size_t>(num_hosts()));
  const auto fill = [this, &out](int h) {
    out[static_cast<std::size_t>(h)] =
        host_demand_mips_[static_cast<std::size_t>(h)] /
        hosts_[static_cast<std::size_t>(h)].mips;
  };
  if (exec != nullptr) {
    MEGH_ASSERT(exec->plan().count() == num_hosts(),
                "all_host_utilization: executor plan does not cover the fleet");
    exec->for_items(fill);
  } else {
    for (int h = 0; h < num_hosts(); ++h) fill(h);
  }
}

void Datacenter::reserve_full_occupancy() {
  if (vms_.empty()) return;
  double min_ram = vms_.front().ram_mb;
  for (const auto& v : vms_) min_ram = std::min(min_ram, v.ram_mb);
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    // fits() admits a VM while ram_used + ram <= cap + 1e-9, so at most
    // floor(cap / min_ram) VMs ever share a host; +1 absorbs the epsilon.
    const std::size_t cap = static_cast<std::size_t>(
        hosts_[h].ram_mb / min_ram + 1e-9);
    host_vms_[h].reserve(std::min(vms_.size(), cap + 1));
  }
}

void Datacenter::recompute_host_demand(int host) {
  // List-order sum: the exact expression the pre-cache code evaluated on
  // every query, so the cache is bit-identical to a fresh recomputation.
  double total = 0.0;
  for (int vm : host_vms_[static_cast<std::size_t>(host)]) {
    total += vm_util_[static_cast<std::size_t>(vm)] *
             vms_[static_cast<std::size_t>(vm)].mips;
  }
  host_demand_mips_[static_cast<std::size_t>(host)] = total;
}

void Datacenter::recompute_host_ram(int host) {
  double total = 0.0;
  for (int vm : host_vms_[static_cast<std::size_t>(host)]) {
    total += vms_[static_cast<std::size_t>(vm)].ram_mb;
  }
  host_ram_used_[static_cast<std::size_t>(host)] = total;
}

void Datacenter::debug_check_cache() const {
#ifndef NDEBUG
  int active = 0;
  for (int h = 0; h < num_hosts(); ++h) {
    double total = 0.0;
    double ram = 0.0;
    for (int vm : host_vms_[static_cast<std::size_t>(h)]) {
      total += vm_util_[static_cast<std::size_t>(vm)] *
               vms_[static_cast<std::size_t>(vm)].mips;
      ram += vms_[static_cast<std::size_t>(vm)].ram_mb;
    }
    MEGH_ASSERT(total == host_demand_mips_[static_cast<std::size_t>(h)],
                "cached host demand diverged from fresh recomputation");
    MEGH_ASSERT(ram == host_ram_used_[static_cast<std::size_t>(h)],
                "cached host RAM diverged from fresh recomputation");
    if (!host_vms_[static_cast<std::size_t>(h)].empty()) ++active;
  }
  MEGH_ASSERT(active == active_host_count_,
              "cached active-host count diverged");
#endif
}

}  // namespace megh

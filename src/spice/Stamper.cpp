#include "spice/Stamper.h"

#include <algorithm>

#include "spice/Device.h"
#include "util/ThreadPool.h"

namespace nemtcam::spice {

void Stamper::stamp_devices(
    const std::vector<std::unique_ptr<Device>>& devices,
    const StampContext& ctx) {
  // Devices per range: enough that one range's stamping outweighs the
  // cost of handing it to a worker.
  constexpr std::size_t kDevicesPerRange = 64;
  const std::size_t n = devices.size();
  util::ThreadPool* pool = cache_.pool();
  if (n < 2 * kDevicesPerRange || !cache_.can_split(n)) {
    for (const auto& dev : devices) {
      cache_.mark_device();
      dev->stamp(*this, ctx);
    }
    cache_.mark_device();
    return;
  }
  const std::size_t ranges =
      std::min(n / kDevicesPerRange, pool->thread_count() * 4);
  std::vector<AssemblyCache::Lane>& lanes = cache_.split(ranges);
  pool->parallel_for(0, ranges, [&](std::size_t c) {
    Stamper lane(cache_, lanes[c], node_unknowns());
    const std::size_t end = cache_.device_begin(c + 1);
    for (std::size_t i = cache_.device_begin(c); i < end; ++i)
      devices[i]->stamp(lane, ctx);
  });
  cache_.join();
}

}  // namespace nemtcam::spice

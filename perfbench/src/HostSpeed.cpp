#include "HostSpeed.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include <sys/mman.h>

double perfbench::timeCalibrationKernel() {
  const auto T0 = std::chrono::steady_clock::now();
  // The kernel allocates only from a mapping of its own, so the state the
  // program leaves its heap in (free chunks to reuse, or glibc's trim
  // threshold) cannot move its time. The mapping is fresh on every call,
  // so every call faults its pages in, as a growing heap does. The
  // kernel needs under half of it; running out throws.
  constexpr size_t Bytes = 1 << 20;
  void *Map = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Map == MAP_FAILED)
    throw std::bad_alloc();
  uint64_t Sum = 0;
  {
    std::pmr::monotonic_buffer_resource Pool(Map, Bytes,
                                             std::pmr::null_memory_resource());
    uint64_t X = 88172645463325252ull; // xorshift64
    auto Next = [&X] {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      return X;
    };
    // String keys in an ordered map, then a sort.
    std::pmr::map<std::pmr::string, uint64_t> Ordered(&Pool);
    std::pmr::vector<uint64_t> V(&Pool);
    V.reserve(1500);
    for (int I = 0; I != 1500; ++I) {
      const uint64_t R = Next();
      std::pmr::string Key("k", &Pool);
      Key += std::to_string(R % 100000);
      Ordered[Key] += R;
      V.push_back(R);
    }
    std::sort(V.begin(), V.end());
    Sum = V[V.size() / 2];
    for (const auto &KV : Ordered)
      Sum += KV.second ^ KV.first.size();
    // Small vectors churned in a hash map.
    std::pmr::unordered_map<uint64_t, std::pmr::vector<int>> Hashed(&Pool);
    for (int I = 0; I != 4000; ++I) {
      std::pmr::vector<int> &Bucket = Hashed[Next() % 2000];
      Bucket.push_back(I);
      if (Bucket.size() > 3)
        Bucket.erase(Bucket.begin());
      Sum += Bucket.size();
    }
  } // The containers and the pool let go of the mapping here.
  ::munmap(Map, Bytes);
  // Keep the result observable so the work is not optimized away.
  static std::atomic<uint64_t> Sink;
  Sink.store(Sum, std::memory_order_relaxed);
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

// Live heap bytes per call site at the heap's peak, as an LD_PRELOAD
// library. scripts/heap_sites.py builds it, runs a command under it and
// symbolizes the sites; see there for usage.
//
// Every operator new and delete of the process goes through here. A
// block carries a header with its requested size and its site, the
// innermost kDepth (4) return addresses of the allocation outside this
// library. Each site keeps its live bytes and blocks. Whenever the live
// total passes the highest snapshot by kStep bytes (64 KiB), the
// per-site live bytes are copied into the snapshot, so the snapshot is
// within one step of the true peak. At exit the snapshot is written to HEAP_SITES_OUT (default
// heap_sites.raw): one "peak" line, then one line per site with live
// bytes, live blocks and each frame as "module+offset". Symbol profilers
// attribute nothing useful here, because coroutine bodies and inlined
// containers land on unrelated symbols; a tally of live bytes does not.
//
// malloc and free are not intercepted, so a C allocation is not
// counted. Threads are serialised by a spin lock.
#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

constexpr int kDepth = 4;
constexpr std::int64_t kStep = 65536;
constexpr std::size_t kMaxSites = 1 << 16;  // open addressing, power of 2
constexpr std::size_t kHeader = alignof(std::max_align_t) * 2;

struct Site {
  void* frames[kDepth];
  std::int64_t live = 0;
  std::int64_t blocks = 0;
  std::int64_t peak_live = 0;  // live at the snapshot
  std::int64_t peak_blocks = 0;
  bool used = false;
};

struct Header {
  std::size_t size;
  std::uint32_t site;
};
static_assert(sizeof(Header) <= kHeader);

Site g_sites[kMaxSites];
std::size_t g_nsites = 0;
std::atomic_flag g_lock = ATOMIC_FLAG_INIT;
std::int64_t g_live = 0;
std::int64_t g_peak = 0;           // highest live total seen
std::int64_t g_snapshot = 0;       // live total at the snapshot
bool g_ready = false;              // backtrace() initialised
std::uintptr_t g_self_lo = 0;      // this library's loaded range
std::uintptr_t g_self_hi = 0;
thread_local bool t_inside = false;  // backtrace() may allocate

struct Lock {
  Lock() {
    while (g_lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~Lock() { g_lock.clear(std::memory_order_release); }
};

std::uint32_t site_of(void* const* frames) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < kDepth; ++i) {
    h = (h ^ reinterpret_cast<std::uintptr_t>(frames[i])) *
        0x100000001B3ull;
  }
  for (std::size_t i = h & (kMaxSites - 1);; i = (i + 1) & (kMaxSites - 1)) {
    Site& s = g_sites[i];
    if (!s.used) {
      // A full table folds every new site into the one with no frames
      // (frames[0] is null only there), which keeps the last free slot,
      // so a probe always ends.
      if (g_nsites + 2 >= kMaxSites && frames[0] != nullptr) {
        void* const none[kDepth] = {};
        return site_of(none);
      }
      ++g_nsites;
      s.used = true;
      std::memcpy(s.frames, frames, sizeof s.frames);
      return std::uint32_t(i);
    }
    if (std::memcmp(s.frames, frames, sizeof s.frames) == 0) {
      return std::uint32_t(i);
    }
  }
}

void snapshot() {
  for (Site& s : g_sites) {
    if (!s.used) continue;
    s.peak_live = s.live;
    s.peak_blocks = s.blocks;
  }
  g_snapshot = g_live;
}

bool in_self(void* frame) {
  const auto a = reinterpret_cast<std::uintptr_t>(frame);
  return a >= g_self_lo && a < g_self_hi;
}

// The innermost kDepth frames outside this library, null-padded.
void caller_frames(void** out) {
  constexpr int kSkipMax = 4;  // operator new and the helpers below it
  void* frames[kDepth + kSkipMax] = {};
  int got = 0;
  if (g_ready && !t_inside) {
    t_inside = true;
    got = backtrace(frames, kDepth + kSkipMax);
    t_inside = false;
  }
  int first = 0;
  while (first < got && in_self(frames[first])) ++first;
  for (int i = 0; i < kDepth; ++i) {
    out[i] = first + i < got ? frames[first + i] : nullptr;
  }
}

void* tally_new(std::size_t n) noexcept {
  auto* base = static_cast<unsigned char*>(std::malloc(kHeader + n));
  if (base == nullptr) return nullptr;
  void* frames[kDepth];
  caller_frames(frames);
  Header h{n, 0};
  {
    Lock lock;
    h.site = site_of(frames);
    Site& s = g_sites[h.site];
    s.live += std::int64_t(n);
    ++s.blocks;
    g_live += std::int64_t(n);
    if (g_live > g_peak) g_peak = g_live;
    if (g_live >= g_snapshot + kStep) snapshot();
  }
  std::memcpy(base, &h, sizeof h);
  return base + kHeader;
}

void tally_free(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* base = static_cast<unsigned char*>(p) - kHeader;
  Header h;
  std::memcpy(&h, base, sizeof h);
  {
    Lock lock;
    Site& s = g_sites[h.site];
    s.live -= std::int64_t(h.size);
    --s.blocks;
    g_live -= std::int64_t(h.size);
  }
  std::free(base);
}

void* throwing_new(std::size_t n) {
  if (void* p = tally_new(n)) return p;
  throw std::bad_alloc();
}

int find_self(dl_phdr_info* info, std::size_t, void*) {
  const auto self = reinterpret_cast<std::uintptr_t>(&find_self);
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD) continue;
    const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
    const std::uintptr_t hi = lo + ph.p_memsz;
    if (self >= lo && self < hi) {
      g_self_lo = lo;
      g_self_hi = hi;
      return 1;
    }
  }
  return 0;
}

__attribute__((constructor)) void init() {
  dl_iterate_phdr(find_self, nullptr);
  void* warm[2];
  backtrace(warm, 2);  // loads the unwinder before the first count
  g_ready = true;
}

__attribute__((destructor)) void dump() {
  const char* path = std::getenv("HEAP_SITES_OUT");
  FILE* f = std::fopen(path != nullptr ? path : "heap_sites.raw", "w");
  if (f == nullptr) return;
  Lock lock;
  std::fprintf(f, "peak %lld snapshot %lld depth %d\n",
               static_cast<long long>(g_peak),
               static_cast<long long>(g_snapshot), kDepth);
  for (const Site& s : g_sites) {
    if (!s.used || s.peak_live == 0) continue;
    std::fprintf(f, "%lld %lld", static_cast<long long>(s.peak_live),
                 static_cast<long long>(s.peak_blocks));
    for (int i = 0; i < kDepth; ++i) {
      Dl_info info;
      if (s.frames[i] != nullptr && dladdr(s.frames[i], &info) != 0 &&
          info.dli_fname != nullptr) {
        // addr2line wants a position-independent module's addresses
        // relative to its base. A return address points past the call,
        // so step back one byte into it.
        const auto* ehdr = static_cast<const ElfW(Ehdr)*>(info.dli_fbase);
        const auto base = ehdr->e_type == ET_EXEC
                              ? std::uintptr_t{0}
                              : reinterpret_cast<std::uintptr_t>(ehdr);
        std::fprintf(f, " %s+0x%lx", info.dli_fname,
                     static_cast<unsigned long>(
                         reinterpret_cast<std::uintptr_t>(s.frames[i]) - 1 -
                         base));
      } else {
        std::fprintf(f, " ?");
      }
    }
    std::fprintf(f, "\n");
  }
  std::fclose(f);
}

}  // namespace

void* operator new(std::size_t n) { return throwing_new(n); }
void* operator new[](std::size_t n) { return throwing_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return tally_new(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return tally_new(n);
}
void operator delete(void* p) noexcept { tally_free(p); }
void operator delete[](void* p) noexcept { tally_free(p); }
void operator delete(void* p, std::size_t) noexcept { tally_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tally_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tally_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tally_free(p);
}

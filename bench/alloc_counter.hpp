// Process-wide heap-allocation counter for the zero-allocation gates of
// the bench binaries: replaces the global operator new/delete so a
// benchmark can snapshot g_alloc_count around its timed loop and report
// allocations per iteration. Counts every operator-new form, over-aligned
// ones included (the nothrow forms forward to these).
//
// The replacement operators are ordinary (non-inline) definitions, as the
// language requires, so include this header from exactly one translation
// unit per binary: each bench binary is one .cpp file.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// GCC's -Wmismatched-new-delete pairs the replaced operator new below with
// the replaced operator delete when inlining both into callers and flags the
// malloc/free it sees inside as mismatched; both sides of the replacement
// use malloc/free, so the pairing is correct. The pragma stays in force for
// the including file, where those inlined calls are.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

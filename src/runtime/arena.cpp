#include "runtime/arena.hpp"

#include <sys/mman.h>

namespace gothic::runtime {

std::byte* Arena::map_chunk(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(p);
}

void Arena::unmap_chunk(std::byte* mem, std::size_t bytes) {
  ::munmap(mem, bytes);
}

} // namespace gothic::runtime

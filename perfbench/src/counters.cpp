#include "counters.h"

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace perfbench {

InstructionCounter::InstructionCounter() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.inherit = 1;  // threads started later count too
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  fd_ = static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0 /* this process */,
              -1 /* any cpu */, -1 /* no group */, PERF_FLAG_FD_CLOEXEC));
  if (fd_ < 0) {
    throw std::runtime_error(
        std::string("cannot count instructions (perf_event_open: ") +
        std::strerror(errno) + ")");
  }
}

InstructionCounter::~InstructionCounter() { close(fd_); }

std::uint64_t InstructionCounter::read() const {
  std::uint64_t count = 0;
  if (::read(fd_, &count, sizeof(count)) != static_cast<ssize_t>(sizeof(count))) {
    throw std::runtime_error("cannot read the instruction counter");
  }
  return count;
}

}  // namespace perfbench

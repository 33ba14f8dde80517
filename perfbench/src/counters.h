// Retired-instruction counting through the kernel's perf events.
#pragma once

#include <cstdint>

namespace perfbench {

/// Counts the user-space instructions this thread retires, and those of
/// every thread it (or its descendants) starts after construction.  A
/// started thread's count joins the total when the thread exits.  Unlike
/// wall or CPU time, the count does not change when neighbours on a shared
/// host slow the processor down.
class InstructionCounter {
 public:
  /// Throws std::runtime_error when the kernel refuses the counter.
  InstructionCounter();
  ~InstructionCounter();
  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;

  std::uint64_t read() const;

 private:
  int fd_ = -1;
};

}  // namespace perfbench

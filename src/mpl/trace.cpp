#include "mpl/trace.hpp"

#include <algorithm>
#include <sstream>

namespace ppa::mpl {

std::string op_name(Op op) {
  switch (op) {
    case Op::kSend: return "send";
    case Op::kBarrier: return "barrier";
    case Op::kBroadcast: return "broadcast";
    case Op::kGather: return "gather";
    case Op::kAllgather: return "allgather";
    case Op::kScatter: return "scatter";
    case Op::kReduce: return "reduce";
    case Op::kAllreduce: return "allreduce";
    case Op::kAlltoall: return "alltoall";
    case Op::kScan: return "scan";
    case Op::kCount_: break;
  }
  return "unknown";
}

CommTrace::CommTrace(int nranks)
    : nranks_(nranks > 0 ? static_cast<std::size_t>(nranks) : 0),
      shards_(nranks_ + 1) {}

void CommTrace::reset() {
  for (auto& s : shards_) {
    s.messages.store(0, std::memory_order_relaxed);
    s.bytes.store(0, std::memory_order_relaxed);
    s.copies.store(0, std::memory_order_relaxed);
    s.copied_bytes.store(0, std::memory_order_relaxed);
    for (auto& c : s.ops) c.store(0, std::memory_order_relaxed);
  }
}

TraceSnapshot CommTrace::snapshot() const {
  TraceSnapshot out;
  out.sent_bytes_by_rank.reserve(nranks_);
  for (std::size_t r = 0; r < shards_.size(); ++r) {
    const Shard& s = shards_[r];
    const auto bytes = s.bytes.load(std::memory_order_relaxed);
    out.messages += s.messages.load(std::memory_order_relaxed);
    out.bytes += bytes;
    out.copies += s.copies.load(std::memory_order_relaxed);
    out.copied_bytes += s.copied_bytes.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
      out.ops[i] += s.ops[i].load(std::memory_order_relaxed);
    }
    if (r < nranks_) out.sent_bytes_by_rank.push_back(bytes);
  }
  return out;
}

std::uint64_t TraceSnapshot::max_sent_by_any_rank() const {
  if (sent_bytes_by_rank.empty()) return 0;
  return *std::max_element(sent_bytes_by_rank.begin(), sent_bytes_by_rank.end());
}

std::string TraceSnapshot::to_string() const {
  std::ostringstream os;
  os << "p2p messages: " << messages << ", payload bytes: " << bytes
     << ", copied bytes: " << copied_bytes << " (" << copies << " copies)\n";
  for (int i = 0; i < kOpCount; ++i) {
    const auto count = ops[static_cast<std::size_t>(i)];
    if (count > 0) {
      os << "  " << op_name(static_cast<Op>(i)) << ": " << count << "\n";
    }
  }
  if (!sent_bytes_by_rank.empty()) {
    os << "  sent bytes by rank:";
    for (const auto b : sent_bytes_by_rank) os << ' ' << b;
    os << "\n";
  }
  return os.str();
}

}  // namespace ppa::mpl

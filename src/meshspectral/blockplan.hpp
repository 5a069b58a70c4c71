// ppa/meshspectral/blockplan.hpp
//
// Batched boundary exchange for multi-block domains (blockset.hpp) — the
// halo-exchange plan generalized from one grid per rank to a BlockSet, in
// the shape of Parthenon's `bvals_in_one`: compile, once per block set, a
// boundary-buffer table covering every (block, neighbor-block) face/corner
// pair, split into
//
//   - on-rank pairs:  both blocks owned here — a direct local copy, no
//     message at all (oversubscription converts former halo traffic into
//     memcpy);
//   - off-rank pairs: coalesced per *peer rank* — every halo strip this
//     rank owes a given peer travels in ONE batched message per round,
//     regardless of how many block pairs straddle that rank boundary.
//
// Exchanging is then:
//
//     bplan.begin_exchange_all(p, blocks);   // one send per peer rank
//     ... work that reads no ghosts ...
//     bplan.end_exchange_all(p, blocks);     // one receive per peer rank
//     ... per-block sweeps ...
//
// exchange_all runs the two back to back.
//
// Determinism: both sides of a rank boundary derive the *same* entry list
// in the *same* order from nothing but the (replicated) layout + owner
// map — entries to/from a peer are sorted by (src block id, dst block id,
// direction), so the sender's concatenation order is exactly the
// receiver's parse order and no per-entry header beyond the allocation
// status is needed.
//
// Wire format (per peer, per round): a byte message that concatenates one
// record per entry in canonical order,
//
//     [u64 status][ sizeof(T) * count bytes of halo data  iff status == 1 ]
//
// status 0 = source block deallocated (no data follows; the receiver
// zero-fills the ghost strip), status 1 = halo strip follows. This is the
// piggyback channel of the sparse allocation protocol: when `sparse` is on,
// the receiver makes an allocation pass over all incoming records first —
// a deallocated destination block materializes (zero-filled) iff some
// incoming strip carries a value with |v| > alloc_threshold — and only
// then unpacks, so a block woken by one neighbor still receives every
// other neighbor's strip from the same round. Unallocated destinations
// discard trivial strips without ever allocating. Local copies are staged
// at begin (snapshot semantics, like ExchangePlan2D) and applied in the
// same two-pass order at end.
//
// Buffers: as in ExchangePlan2D, a strip is copied once out (block rows
// straight into the outgoing message) and once in (borrowed payload
// straight into the ghost rows). On-rank records stage in one buffer, and
// the per-round record and payload lists keep their capacity across rounds.
//
// Modes: `batched = false` sends one message per entry (same records, same
// canonical order, same single tag — correct because the mailbox is FIFO
// per (source, tag)). That is the A/B baseline for bench/ablation_blocks
// and reproduces the single-grid plan's message count exactly at N = 1.
//
// Tags: a plan uses ONE tag — kExchangeTagBase + tag_block *
// kExchangeTagStride + 27 (offset 27 keeps it disjoint from the 0..26
// direction tags of any ExchangePlan2D/3D sharing the tag block). Block
// plans simultaneously in flight need distinct tag blocks.
//
// Thread-safety and ownership: owned by one rank (thread); holds no
// reference to any block set — begin/end take the set as an argument and
// validate (PlanShapeMismatch) that its layout, distribution and rank
// match what was compiled. At most one exchange per plan may be in flight.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "meshspectral/blockset.hpp"
#include "meshspectral/grid2d.hpp"
#include "meshspectral/plan.hpp"
#include "mpl/process.hpp"

namespace ppa::mesh {

/// Options for a block-set exchange plan. Periodicity lives in the
/// BlockLayout2D (it is a property of the domain, not of one plan).
struct BlockExchangeOptions {
  /// Also exchange diagonal (corner) strips; 5-point stencils leave it off.
  bool corners = false;
  /// Tag block index; plans simultaneously in flight need distinct blocks.
  int tag_block = 0;
  /// One coalesced message per peer rank (default) vs one message per
  /// (block, neighbor-block) pair — the ablation baseline.
  bool batched = true;
  /// Enable the sparse allocation protocol: unallocated destinations
  /// materialize when an incoming strip is non-trivial, otherwise stay
  /// storage-free.
  bool sparse = false;
  /// A value v is non-trivial (triggers allocation) when |v| >
  /// alloc_threshold. Only meaningful with `sparse` and arithmetic T.
  double alloc_threshold = 0.0;
};

/// Compiled boundary-buffer table for one rank's block set. Geometry-only
/// (no element type): begin/end are templated on the field type.
class BlockExchangePlan2D {
 public:
  using Options = BlockExchangeOptions;

  BlockExchangePlan2D() = default;

  /// Compile the table for `rank` under the given layout and block→rank
  /// map. All ranks must compile with the same layout, map and options.
  BlockExchangePlan2D(const BlockLayout2D& layout, std::vector<int> owner,
                      int rank, Options options = Options()) {
    compile(layout, std::move(owner), rank, options);
  }

  /// Convenience: take layout/map/rank from an existing block set.
  template <typename T>
  explicit BlockExchangePlan2D(const BlockSet<T>& blocks,
                               Options options = Options())
      : BlockExchangePlan2D(blocks.layout(), blocks.owner_map(), blocks.rank(),
                            options) {}

  /// Pack every off-rank halo strip and send one batched message per peer
  /// rank (never blocks); stage the on-rank copies. Sent and staged data
  /// are a snapshot — interior writes after begin do not alter them. Strips
  /// are packed straight from the block rows into the outgoing buffer.
  template <typename T>
  void begin_exchange_all(mpl::Process& p, BlockSet<T>& blocks) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "BlockExchangePlan2D: strips travel as raw bytes");
    check_blockset(blocks);
    assert(!in_flight_ && "BlockExchangePlan2D: begin without matching end");
    in_flight_ = true;
    for (const auto& pl : send_peers_) {
      if (options_.batched) {
        std::vector<std::byte> buf;
        buf.reserve(pl.entries.size() * kStatusBytes +
                    pl.total_count * sizeof(T));
        for (const auto& e : pl.entries) append_record(buf, blocks, e);
        p.send(pl.peer, tag_, std::move(buf));
      } else {
        for (const auto& e : pl.entries) {
          std::vector<std::byte> buf;
          buf.reserve(kStatusBytes + e.count * sizeof(T));
          append_record(buf, blocks, e);
          p.send(pl.peer, tag_, std::move(buf));
        }
      }
    }
    // On-rank copies are staged as records too, back to back in one buffer
    // whose capacity survives from round to round.
    staged_.clear();
    for (const auto& e : local_edges_) append_record(staged_, blocks, e);
  }

  /// Block until every peer's batched message has arrived, then apply the
  /// round: allocation pass first (sparse mode), then unpack — incoming
  /// strips into ghost cells, zero-fill for strips from deallocated
  /// sources, on-rank staged copies alongside. Strips are unpacked straight
  /// from the borrowed payloads.
  template <typename T>
  void end_exchange_all(mpl::Process& p, BlockSet<T>& blocks) {
    check_blockset(blocks);
    assert(in_flight_ && "BlockExchangePlan2D: end without begin");
    in_flight_ = false;

    // Receive everything up front (safe: all sends happened at begin and
    // never block), recording where each entry's record starts. The
    // on-rank records follow the received ones, pointing into staged_. A
    // small payload lives inside its Received, so payloads_ is reserved up
    // front: it must not reallocate while records_ points into it.
    payloads_.clear();
    records_.clear();
    payloads_.reserve(options_.batched ? recv_peers_.size()
                                       : recv_entry_total_);
    for (const auto& pl : recv_peers_) {
      if (options_.batched) {
        payloads_.push_back(p.recv_borrow<std::byte>(pl.peer, tag_));
        const auto view = payloads_.back().view();
        std::size_t off = 0;
        for (const auto& e : pl.entries) {
          assert(off + kStatusBytes <= view.size());
          off += read_record<T>(view.data() + off, e);
        }
        assert(off == view.size() &&
               "BlockExchangePlan2D: batched message size mismatch");
      } else {
        for (const auto& e : pl.entries) {
          payloads_.push_back(p.recv_borrow<std::byte>(pl.peer, tag_));
          const auto view = payloads_.back().view();
          assert(view.size() >= kStatusBytes);
          read_record<T>(view.data(), e);
        }
      }
    }
    std::size_t off = 0;
    for (const auto& e : local_edges_) {
      off += read_record<T>(staged_.data() + off, e);
    }

    // Allocation pass: a deallocated destination materializes iff some
    // incoming strip from this round is non-trivial — *before* any strip
    // is unpacked, so the new block receives all of this round's halos.
    if (options_.sparse) {
      for (const auto& r : records_) {
        if (r.data == nullptr) continue;
        auto& dst = destination(blocks, *r.edge);
        if (dst.allocated()) continue;
        if (nontrivial_any<T>(r.data, r.edge->count)) dst.allocate();
      }
    }

    // Unpack pass. Destinations still deallocated just drop their strips
    // (their value is zero by definition); allocated destinations take the
    // strip, or a zero fill when the source was deallocated.
    for (const auto& r : records_) {
      auto& dst = destination(blocks, *r.edge);
      if (!dst.allocated()) continue;
      apply_strip(dst, r.edge->recv, r.data);
    }
    payloads_.clear();  // release the borrowed messages
  }

  /// Blocking convenience: begin immediately followed by end (no overlap).
  template <typename T>
  void exchange_all(mpl::Process& p, BlockSet<T>& blocks) {
    begin_exchange_all(p, blocks);
    end_exchange_all(p, blocks);
  }

  /// Off-rank messages this rank sends per round (== receives per round):
  /// one per peer rank when batched, one per boundary pair otherwise.
  [[nodiscard]] std::size_t off_rank_message_count() const noexcept {
    return options_.batched ? send_peers_.size() : send_entry_total_;
  }
  /// Peer ranks sharing at least one block boundary with this rank.
  [[nodiscard]] std::size_t peer_count() const noexcept {
    return send_peers_.size();
  }
  /// Off-rank (block, neighbor-block) directed pairs sent per round.
  [[nodiscard]] std::size_t off_rank_entry_count() const noexcept {
    return send_entry_total_;
  }
  /// On-rank directed pairs handled by local copy (no message).
  [[nodiscard]] std::size_t local_copy_count() const noexcept {
    return local_edges_.size();
  }
  [[nodiscard]] bool in_flight() const noexcept { return in_flight_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  /// One directed boundary pair: src block's `send` strip fills dst
  /// block's `recv` ghost strip (both in the blocks' own local indices).
  struct BlockEdge {
    int src_id = 0;
    int dst_id = 0;
    int dir_index = 0;  ///< (dx+1)*3 + (dy+1), part of the canonical order
    Region2 send;
    Region2 recv;
    std::size_t count = 0;  ///< elements per strip
  };
  struct PeerList {
    int peer = 0;
    std::vector<BlockEdge> entries;  ///< canonical (src, dst, dir) order
    std::size_t total_count = 0;     ///< sum of entry counts
  };
  /// One parsed record of the current round: its edge, and its strip data
  /// (nullptr when the source block was deallocated).
  struct Incoming {
    const BlockEdge* edge;
    const std::byte* data;
  };

  /// Bytes of a record's status word.
  static constexpr std::size_t kStatusBytes = sizeof(std::uint64_t);

  void compile(const BlockLayout2D& layout, std::vector<int> owner, int rank,
               const Options& options) {
    assert(options.tag_block >= 0 && options.tag_block < kExchangeTagBlocks &&
           "BlockExchangePlan2D: tag_block outside the exchange tag space");
    assert(static_cast<int>(owner.size()) == layout.nblocks() &&
           "BlockExchangePlan2D: owner map size != block count");
    layout_ = layout;
    owner_ = std::move(owner);
    rank_ = rank;
    options_ = options;
    tag_ = kExchangeTagBase + options.tag_block * kExchangeTagStride + 27;
    const auto g = static_cast<std::ptrdiff_t>(layout.ghost);
    if (g == 0) return;
#ifndef NDEBUG
    for (int bx = 0; bx < layout.nbx; ++bx) {
      assert(layout.x_range(bx).size() >= layout.ghost &&
             "BlockExchangePlan2D: ghost width exceeds a block's x extent");
    }
    for (int by = 0; by < layout.nby; ++by) {
      assert(layout.y_range(by).size() >= layout.ghost &&
             "BlockExchangePlan2D: ghost width exceeds a block's y extent");
    }
#endif

    struct Directed {
      int peer;
      BlockEdge edge;
    };
    std::vector<Directed> sends, recvs;
    for (int id = 0; id < layout.nblocks(); ++id) {
      const int src_owner = owner_[static_cast<std::size_t>(id)];
      const int bx = layout.bx_of(id);
      const int by = layout.by_of(id);
      const auto sx = static_cast<std::ptrdiff_t>(layout.x_range(bx).size());
      const auto sy = static_cast<std::ptrdiff_t>(layout.y_range(by).size());
      for (int dx = -1; dx <= 1; ++dx) {
        for (int dy = -1; dy <= 1; ++dy) {
          if (dx == 0 && dy == 0) continue;
          if (!options.corners && dx != 0 && dy != 0) continue;
          int qx = 0, qy = 0;
          if (!detail::axis_neighbor(bx, dx, layout.nbx, layout.periodic.x,
                                     qx) ||
              !detail::axis_neighbor(by, dy, layout.nby, layout.periodic.y,
                                     qy)) {
            continue;
          }
          const int dst = layout.id_of(qx, qy);
          const int dst_owner = owner_[static_cast<std::size_t>(dst)];
          if (src_owner != rank && dst_owner != rank) continue;
          const auto dx_n =
              static_cast<std::ptrdiff_t>(layout.x_range(qx).size());
          const auto dy_n =
              static_cast<std::ptrdiff_t>(layout.y_range(qy).size());
          BlockEdge e;
          e.src_id = id;
          e.dst_id = dst;
          e.dir_index = (dx + 1) * 3 + (dy + 1);
          detail::send_slab(dx, sx, g, e.send.i0, e.send.i1);
          detail::send_slab(dy, sy, g, e.send.j0, e.send.j1);
          // dst sees src at direction -d: its ghost strip at -d is filled.
          detail::recv_slab(-dx, dx_n, g, e.recv.i0, e.recv.i1);
          detail::recv_slab(-dy, dy_n, g, e.recv.j0, e.recv.j1);
          e.count = static_cast<std::size_t>((e.send.i1 - e.send.i0) *
                                             (e.send.j1 - e.send.j0));
          assert(e.count == static_cast<std::size_t>(
                                (e.recv.i1 - e.recv.i0) *
                                (e.recv.j1 - e.recv.j0)) &&
                 "BlockExchangePlan2D: send/recv strip extents disagree");
          if (src_owner == rank && dst_owner == rank) {
            local_edges_.push_back(e);
          } else if (src_owner == rank) {
            sends.push_back({dst_owner, e});
          } else {
            recvs.push_back({src_owner, e});
          }
        }
      }
    }

    const auto canon = [](const Directed& a, const Directed& b) {
      if (a.peer != b.peer) return a.peer < b.peer;
      if (a.edge.src_id != b.edge.src_id) return a.edge.src_id < b.edge.src_id;
      if (a.edge.dst_id != b.edge.dst_id) return a.edge.dst_id < b.edge.dst_id;
      return a.edge.dir_index < b.edge.dir_index;
    };
    std::sort(sends.begin(), sends.end(), canon);
    std::sort(recvs.begin(), recvs.end(), canon);
    std::sort(local_edges_.begin(), local_edges_.end(),
              [](const BlockEdge& a, const BlockEdge& b) {
                if (a.src_id != b.src_id) return a.src_id < b.src_id;
                if (a.dst_id != b.dst_id) return a.dst_id < b.dst_id;
                return a.dir_index < b.dir_index;
              });
    const auto group = [](const std::vector<Directed>& flat,
                          std::vector<PeerList>& out, std::size_t& total) {
      for (const auto& d : flat) {
        if (out.empty() || out.back().peer != d.peer) {
          out.push_back({d.peer, {}, 0});
        }
        out.back().entries.push_back(d.edge);
        out.back().total_count += d.edge.count;
        ++total;
      }
    };
    group(sends, send_peers_, send_entry_total_);
    group(recvs, recv_peers_, recv_entry_total_);
  }

  template <typename T>
  static MeshBlock<T>& destination(BlockSet<T>& blocks, const BlockEdge& e) {
    return blocks.block(static_cast<std::size_t>(blocks.local_index(e.dst_id)));
  }

  /// Append the wire record for edge `e` (owned source block) to `buf`,
  /// copying the strip straight from the block's rows.
  template <typename T>
  static void append_record(std::vector<std::byte>& buf,
                            const BlockSet<T>& blocks, const BlockEdge& e) {
    const auto& src =
        blocks.block(static_cast<std::size_t>(blocks.local_index(e.src_id)));
    const std::uint64_t status = src.allocated() ? 1 : 0;
    const auto* s = reinterpret_cast<const std::byte*>(&status);
    buf.insert(buf.end(), s, s + sizeof status);
    if (status == 0) return;
    const auto w = static_cast<std::size_t>(e.send.j1 - e.send.j0) * sizeof(T);
    for (std::ptrdiff_t i = e.send.i0; i < e.send.i1; ++i) {
      const auto* row =
          reinterpret_cast<const std::byte*>(src.grid().row(i) + e.send.j0);
      buf.insert(buf.end(), row, row + w);
    }
  }

  /// Parse the record for edge `e` at `in` into records_; returns its size.
  template <typename T>
  std::size_t read_record(const std::byte* in, const BlockEdge& e) {
    std::uint64_t status = 0;
    std::memcpy(&status, in, sizeof status);
    records_.push_back({&e, status != 0 ? in + kStatusBytes : nullptr});
    return kStatusBytes + (status != 0 ? e.count * sizeof(T) : 0);
  }

  /// Scatter a strip into dst's ghost region; a null strip means the
  /// source was deallocated — the ghost strip becomes exact zero.
  template <typename T>
  static void apply_strip(MeshBlock<T>& dst, const Region2& r,
                          const std::byte* data) {
    const auto w = static_cast<std::size_t>(r.j1 - r.j0);
    for (std::ptrdiff_t i = r.i0; i < r.i1; ++i) {
      T* row = dst.grid().row(i) + r.j0;
      if (data == nullptr) {
        std::fill_n(row, w, T{});
      } else {
        std::memcpy(row, data, w * sizeof(T));
        data += w * sizeof(T);
      }
    }
  }

  /// Does any of the `count` strip values at `data` exceed the allocation
  /// threshold?
  template <typename T>
  [[nodiscard]] bool nontrivial_any(const std::byte* data,
                                    std::size_t count) const {
    if constexpr (std::is_arithmetic_v<T>) {
      for (std::size_t k = 0; k < count; ++k) {
        T x;
        std::memcpy(&x, data + k * sizeof(T), sizeof(T));
        if (std::abs(static_cast<double>(x)) > options_.alloc_threshold) {
          return true;
        }
      }
      return false;
    } else {
      // Non-arithmetic payloads have no magnitude: any data is non-trivial.
      return count != 0;
    }
  }

  template <typename T>
  void check_blockset(const BlockSet<T>& blocks) const {
    if (!(blocks.layout() == layout_) || blocks.rank() != rank_ ||
        blocks.owner_map() != owner_) {
      throw PlanShapeMismatch(
          "BlockExchangePlan2D: block set layout/distribution/rank differs "
          "from the compiled plan");
    }
  }

  BlockLayout2D layout_;
  std::vector<int> owner_;
  int rank_ = 0;
  Options options_;
  int tag_ = 0;
  std::vector<BlockEdge> local_edges_;  ///< both endpoints on this rank
  std::vector<PeerList> send_peers_;    ///< ascending peer rank
  std::vector<PeerList> recv_peers_;    ///< ascending peer rank
  std::size_t send_entry_total_ = 0;
  std::size_t recv_entry_total_ = 0;
  // Per-round working storage, kept so its capacity is reused.
  std::vector<std::byte> staged_;       ///< begin→end records, local edges
  std::vector<mpl::Received<std::byte>> payloads_;  ///< borrowed until end
  std::vector<Incoming> records_;       ///< received, then local, in order
  bool in_flight_ = false;
};

}  // namespace ppa::mesh

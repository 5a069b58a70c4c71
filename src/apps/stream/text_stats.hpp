// ppa/apps/stream/text_stats.hpp
//
// Streaming text-statistics consumer of the pipeline archetype:
//
//   source (synthesize chunk) | stage (normalize)
//     | farm(k, CountWorker)   [unordered]
//     | sink (merge)
//
// The farm demonstrates the *replicated worker state* pattern (Danelutto et
// al.): each CountWorker replica tokenizes its chunks into a private
// WordStats accumulator and emits nothing per item (the per-item result is
// filtered with std::nullopt); at end-of-stream each replica flushes its
// local counts once, and the sink merges them with the commutative
// WordStats::operator+=. Which replica counted which chunk is
// driver-specific, but the merged totals are exact (unsigned additions), so
// every driver produces the identical final WordStats.
//
// Chunks are synthesized deterministically from (seed, id) alone, so the
// plain-loop oracle regenerates the exact stream.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "support/rng.hpp"

namespace ppa::app::stream {

/// Text bytes per chunk item (fixed-size so chunks cross the SPMD wire).
inline constexpr std::size_t kChunkChars = 192;

struct Chunk {
  std::uint64_t id = 0;
  std::uint32_t len = 0;
  std::uint32_t pad = 0;  ///< keep the struct padding-free for Wire transfer
  std::array<char, kChunkChars> text{};
};
static_assert(mpl::Wire<Chunk>);

/// Commutatively mergeable word statistics (per worker, then global).
struct WordStats {
  std::uint64_t chunks = 0;
  std::uint64_t words = 0;
  std::array<std::uint64_t, 26> first_letter{};  ///< words by initial a..z
  std::array<std::uint64_t, 12> length_hist{};   ///< words by length (12+ capped)

  WordStats& operator+=(const WordStats& o) {
    chunks += o.chunks;
    words += o.words;
    for (std::size_t i = 0; i < first_letter.size(); ++i) {
      first_letter[i] += o.first_letter[i];
    }
    for (std::size_t i = 0; i < length_hist.size(); ++i) {
      length_hist[i] += o.length_hist[i];
    }
    return *this;
  }
  friend bool operator==(const WordStats&, const WordStats&) = default;
};
static_assert(mpl::Wire<WordStats>);

struct TextConfig {
  std::size_t chunks = 300;  ///< stream length
  int farm_width = 4;        ///< counting replicas
  std::uint64_t seed = 7;
};

/// Synthesize chunk `id`: mixed-case words with punctuation, deterministic
/// in (cfg.seed, id) only.
inline Chunk make_chunk(const TextConfig& cfg, std::uint64_t id) {
  Rng rng(cfg.seed ^ (id * 0xBF58476D1CE4E5B9ULL));
  Chunk c;
  c.id = id;
  std::size_t pos = 0;
  while (pos + 16 < kChunkChars) {
    const auto word_len = static_cast<std::size_t>(1 + rng.uniform_u64(14));
    for (std::size_t i = 0; i < word_len; ++i) {
      const char base = static_cast<char>('a' + rng.uniform_u64(26));
      const bool upper = rng.uniform_u64(4) == 0;
      c.text[pos++] = upper ? static_cast<char>(base - 'a' + 'A') : base;
    }
    switch (rng.uniform_u64(5)) {
      case 0: c.text[pos++] = ','; break;
      case 1: c.text[pos++] = '.'; break;
      default: break;
    }
    c.text[pos++] = ' ';
  }
  c.len = static_cast<std::uint32_t>(pos);
  return c;
}

/// Stage 1: lowercase letters, squash everything else to spaces.
inline Chunk normalize_chunk(Chunk c) {
  for (std::uint32_t i = 0; i < c.len; ++i) {
    const char ch = c.text[i];
    if (ch >= 'A' && ch <= 'Z') {
      c.text[i] = static_cast<char>(ch - 'A' + 'a');
    } else if (ch < 'a' || ch > 'z') {
      c.text[i] = ' ';
    }
  }
  return c;
}

/// Tokenize a normalized chunk into `stats` (words = maximal letter runs).
inline void count_chunk(const Chunk& c, WordStats& stats) {
  ++stats.chunks;
  std::size_t word_start = kChunkChars;  // sentinel: not in a word
  for (std::uint32_t i = 0; i <= c.len; ++i) {
    const bool letter = i < c.len && c.text[i] >= 'a' && c.text[i] <= 'z';
    if (letter && word_start == kChunkChars) {
      word_start = i;
    } else if (!letter && word_start != kChunkChars) {
      const std::size_t len = i - word_start;
      ++stats.words;
      ++stats.first_letter[static_cast<std::size_t>(c.text[word_start] - 'a')];
      ++stats.length_hist[std::min(len - 1, stats.length_hist.size() - 1)];
      word_start = kChunkChars;
    }
  }
}

/// Farm worker: replicated local accumulator, flushed at end-of-stream.
struct CountWorker {
  WordStats local{};
  std::optional<WordStats> operator()(Chunk c) {
    count_chunk(c, local);
    return std::nullopt;  // nothing per item; counts surface at flush
  }
  std::vector<WordStats> flush() { return {local}; }
};

/// The stage graph; `total` receives the merged statistics at the sink.
inline auto make_text_plan(const TextConfig& cfg, WordStats& total) {
  std::uint64_t next = 0;
  return pipeline::source([cfg, next]() mutable -> std::optional<Chunk> {
           if (next >= cfg.chunks) return std::nullopt;
           return make_chunk(cfg, next++);
         }) |
         pipeline::stage(normalize_chunk) |
         pipeline::farm(cfg.farm_width, [] { return CountWorker{}; },
                        pipeline::unordered) |
         pipeline::sink([&total](WordStats s) { total += s; });
}

/// Ranks run_process needs: source + normalize + farm + sink.
inline int text_ranks_required(const TextConfig& cfg) { return cfg.farm_width + 3; }

/// Plain-loop oracle.
inline WordStats text_oracle(const TextConfig& cfg) {
  WordStats total;
  for (std::uint64_t id = 0; id < cfg.chunks; ++id) {
    count_chunk(normalize_chunk(make_chunk(cfg, id)), total);
  }
  return total;
}

inline WordStats text_sequential(const TextConfig& cfg) {
  WordStats total;
  make_text_plan(cfg, total).run_sequential();
  return total;
}

inline std::pair<WordStats, pipeline::RunStats> text_threaded(
    const TextConfig& cfg, pipeline::Config pcfg = pipeline::Config{}) {
  WordStats total;
  auto stats = make_text_plan(cfg, total).run_threaded(pcfg);
  return {total, std::move(stats)};
}

/// SPMD driver body; the sink rank returns the merged stats, other ranks an
/// empty WordStats.
inline WordStats text_process(mpl::Process& p, const TextConfig& cfg,
                              pipeline::Config pcfg = pipeline::Config{}) {
  WordStats total;
  make_text_plan(cfg, total).run_process(p, pcfg);
  return total;
}

}  // namespace ppa::app::stream

#include "inputs.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

namespace {

/// Independent generator per (seed, stream) so that adding a stream never
/// shifts another stream's values.
ppa::Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  return ppa::Rng(ppa::splitmix64(s));
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
};

}  // namespace

PaperInputs make_paper_inputs(std::uint64_t seed, const PaperSizes& sizes) {
  PaperInputs in;
  in.sizes = sizes;

  auto rp = stream_rng(seed, 1);
  const double c1 = rp.uniform(0.5, 1.5);
  const double c2 = rp.uniform(-0.5, 0.5);
  const double c3 = rp.uniform(-1.0, 1.0);
  in.poisson.nx = in.poisson.ny = sizes.poisson_n;
  in.poisson.tolerance = 0.0;
  in.poisson.max_iters = sizes.poisson_iters;
  in.poisson.f = [c3](double, double) { return c3; };
  in.poisson.g = [c1, c2](double x, double y) { return c1 * (x * x - y * y) + c2 * x * y; };

  auto rc = stream_rng(seed, 2);
  in.cfd.nx = sizes.euler_nx;
  in.cfd.ny = sizes.euler_ny;
  in.cfd.amplitude = rc.uniform(0.05, 0.10);
  in.cfd.x_interface = rc.uniform(0.75, 0.85);

  auto re = stream_rng(seed, 3);
  in.em.n = sizes.em_n;
  in.em.eps_sphere = re.uniform(3.0, 5.0);
  in.em.source_period = re.uniform(16.0, 24.0);
  in.em.sphere_radius = static_cast<double>(sizes.em_n) / 6.0;
  in.em.src_i = sizes.em_n / 4;
  in.em.src_j = in.em.src_k = sizes.em_n / 2;

  auto rf = stream_rng(seed, 4);
  in.fft = ppa::Array2D<ppa::algo::Complex>(sizes.fft_n, sizes.fft_n);
  for (auto& v : in.fft.flat()) v = {rf.uniform(-1.0, 1.0), rf.uniform(-1.0, 1.0)};

  in.keys = ppa::random_ints(sizes.sort_n, -1000000000, 1000000000,
                             stream_rng(seed, 5)());
  return in;
}

ComposeInputs make_compose_inputs(std::uint64_t seed) {
  ComposeInputs in;
  auto r = stream_rng(seed, 6);
  for (std::size_t i = 0; i < kComposePool; ++i) in.coeff.push_back(r.uniform(1.0, 2.0));
  return in;
}

ppa::app::PoissonProblem compose_problem(double a) {
  ppa::app::PoissonProblem prob;
  prob.nx = prob.ny = kComposeGrid;
  prob.tolerance = 1e-4;
  prob.f = [a](double x, double y) { return a * (x * x - y); };
  prob.g = [a](double x, double y) { return a * x * y; };
  return prob;
}

DrawStream::DrawStream(std::uint64_t seed, int client)
    : rng_(stream_rng(seed, 100 + static_cast<std::uint64_t>(client))) {}

JobDraw DrawStream::next() {
  JobDraw d;
  d.kind = static_cast<int>(rng_.uniform_u64(6));
  d.np = 1 + static_cast<int>(rng_.uniform_u64(4));
  if (d.kind == 2) d.np = std::min(d.np, 2);
  d.priority = static_cast<int>(rng_.uniform_u64(3));
  return d;
}

std::uint64_t fingerprint(const PaperInputs& in) {
  Fnv h;
  for (double x : {0.0, 0.25, 0.5, 1.0}) {
    for (double y : {0.0, 0.5, 1.0}) {
      h.f64(in.poisson.f(x, y));
      h.f64(in.poisson.g(x, y));
    }
  }
  h.f64(in.cfd.amplitude);
  h.f64(in.cfd.x_interface);
  h.f64(in.em.eps_sphere);
  h.f64(in.em.source_period);
  h.bytes(in.fft.data(), in.fft.size() * sizeof(ppa::algo::Complex));
  h.bytes(in.keys.data(), in.keys.size() * sizeof(int));
  return h.h;
}

std::uint64_t fingerprint(const ComposeInputs& in) {
  Fnv h;
  for (double a : in.coeff) h.f64(a);
  return h.h;
}

std::uint64_t fingerprint_draws(std::uint64_t seed, int client, int n) {
  Fnv h;
  DrawStream s(seed, client);
  for (int i = 0; i < n; ++i) {
    const auto d = s.next();
    h.i64(d.kind);
    h.i64(d.np);
    h.i64(d.priority);
  }
  return h.h;
}

}  // namespace perfbench

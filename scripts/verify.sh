#!/usr/bin/env bash
# Workspace verification: build, tests, formatting, lints.
# Everything runs offline — all dependencies are vendored under vendor/.
# fmt/clippy run on the product crates only: the vendored stand-ins keep
# their upstream-derived style and are exempt from local lint policy.
set -euo pipefail

cd "$(dirname "$0")/.."

PRODUCT_CRATES=(
  rndi rndi-core rndi-obs rndi-net rndi-shard rndi-cluster simnet groupcast
  rlus hdns minidns dirserv rndi-providers rndi-bench
)
pkg_flags=()
for crate in "${PRODUCT_CRATES[@]}"; do
  pkg_flags+=(-p "$crate")
done

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --check "${pkg_flags[@]}"

echo "==> cargo clippy -D warnings"
cargo clippy "${pkg_flags[@]}" --all-targets -- -D warnings

echo "==> cargo build --examples"
cargo build --examples

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> net smoke: v2 mux and admin interop + concurrency bench builds"
cargo test -q -p rndi-net --test interop
cargo bench -p rndi-bench --bench net_concurrency --no-run

echo "==> shard smoke: rendezvous props + sharded e2e + example + bench builds"
cargo test -q -p rndi-shard
cargo test -q --test sharded_namespace
cargo bench -p rndi-bench --bench shard_scale --no-run
shard_out="$(cargo run -q --example sharded_namespace)"
grep -q "sharded_namespace OK" <<<"$shard_out"

echo "==> overload smoke: admission/shedding e2e + goodput bench builds"
cargo test -q --test overload_resilience
cargo bench -p rndi-bench --bench overload_goodput --no-run

echo "==> obs cluster smoke: merge props + scrape/flight e2e + example + bench builds"
cargo test -q -p rndi-obs --test merge_props
cargo test -q --test obs_cluster
cargo bench -p rndi-bench --bench obs_overhead --no-run
top_out="$(cargo run -q --example cluster_top)"
grep -q 'instance="cluster"' <<<"$top_out"
grep -q 'instance="shard-0"' <<<"$top_out"
grep -q "cluster_top OK"     <<<"$top_out"

echo "==> cluster smoke: membership props + chaos e2e + seed sweep + DirContext e2e + example"
cargo test -q -p rndi-cluster
cargo test -q --test cluster_membership
cargo test -q --test cluster_membership -- --ignored
cargo test -q --test cluster_dircontext
member_out="$(cargo run -q --example cluster_membership)"
grep -q "rndi_cluster_members"   <<<"$member_out"
grep -q "cluster_membership OK"  <<<"$member_out"

echo "==> obs smoke: fig8_federation --obs-dump emits the exposition"
fig8_out="$(RNDI_BENCH_QUICK=1 RNDI_OBS_DUMP=1 cargo bench -p rndi-bench --bench fig8_federation 2>/dev/null)"
grep -q "obs dump: metrics exposition" <<<"$fig8_out"
grep -q "rndi_ops_total"               <<<"$fig8_out"
grep -q "rndi_op_duration_ns_bucket"   <<<"$fig8_out"
grep -q "slowest traces"               <<<"$fig8_out"

echo "verify: OK"

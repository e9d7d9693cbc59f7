"""The built-in scenario catalog, postselection, and file emission.

Four preconfigured scenarios ship with the package.  This script runs the
far-side barrier scenario, where the conditional time assigned to the
reflected subensemble comes out negative: a weak value, not a probability
weighted average, and the clearest sign that postselected times live
outside classical intuition.  It then writes the results to CSV and JSON
through the same path the command line uses.
"""

import tempfile

from weaktime import catalog, emit, run_scenario
from weaktime.scenarios import config_hash, format_config, scenario_to_config

cat = catalog()
print("catalog scenarios:")
for name, sc in cat.items():
    print(f"  {name:<16} grid {sc.grid.n_points:>4} points,"
          f" window {sc.window}, region [{sc.region.x_lo:g}, {sc.region.x_hi:g})")

# run the far-side scenario: the region sits beyond the barrier, so only
# transmitted amplitude ever reaches it
sc = cat["barrier_farside"]
print(f"\nrunning {sc.name} (sojourn pipeline)...")
bundle = run_scenario(sc, pipelines=("sojourn",))

print(f"{'method':<10}{'postselection':<15}{'l':>3}{'value':>14}{'flags':>12}")
for rec in bundle.records:
    if rec.order > 2:
        continue
    print(f"{rec.method:<10}{rec.postselection:<15}{rec.order:>3}"
          f"{rec.value:>14.6f}{rec.flags:>12}")

refl = [r for r in bundle.records
        if r.postselection == "reflected" and r.order == 1][0]
print(f"\nreflected-subensemble time: {refl.value:.6f}"
      f"  (negative: the reflected weak value has no classical analogue)")

# each scenario round-trips through a flat text config with a stable hash,
# which is what makes reruns byte-identical
cfg = scenario_to_config(sc)
print(f"\nconfig hash: {config_hash(cfg)[:16]}...")
print("first config lines:")
for line in format_config(cfg).splitlines()[:5]:
    print(f"  {line}")

with tempfile.TemporaryDirectory() as out_dir:
    paths = emit(bundle, fmt="csv", out_dir=out_dir)
    paths += emit(bundle, fmt="json", out_dir=out_dir)
    print("\nemitted files:")
    for p in paths:
        print(f"  {p}")
    with open(paths[0]) as fh:
        print("\nCSV head:")
        for line in fh.read().splitlines()[:4]:
            print(f"  {line}")

print("\nequivalent command line:")
print("  weaktime run --config farside.cfg --out-dir results --format csv")

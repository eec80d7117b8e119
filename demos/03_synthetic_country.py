"""End-to-end run on a synthetic national database.

Builds a deterministic 81-transmitter scenario over the whole OSGB
envelope, then asks the engine what a 100 mW device could use at a few
locations.  Writes the per-location CSV/JSON and a channel chart SVG into
demo_out/.  Equivalent CLI:

    tvws synth --preset uk81 --seed 7 --out demo_out/uk
    tvws query --txdb demo_out/uk/transmitters.csv \\
               --coverage demo_out/uk/coverage --loc "SJ 839 980" --power 100mW
"""

from pathlib import Path

from tvws import (
    BoundingBox,
    PropagationParams,
    QueryParams,
    adjacent_filter,
    availability,
    build_report,
    contiguity,
    default_plan,
    emit_channel_chart,
    emit_csv,
    enclosing_disk,
    generate_synthetic,
    parse_gridref,
    synth_coverage,
)

OUT = Path(__file__).resolve().parent.parent / "demo_out"

PLACES = {
    "manchester-ish": "SJ 839 980",
    "oxford-ish": "SP 513 061",
    "highlands": "NH 640 450",
}


def demo():
    plan = default_plan()
    prop = PropagationParams()
    envelope = BoundingBox(0, 0, 700_000, 1_300_000)

    print("building 81 synthetic transmitters + coverage disks (seed 7)...")
    db = generate_synthetic(7, 81, envelope, plan)
    disks = {}
    for i, tx in enumerate(db):
        raster = synth_coverage(tx, prop, 1_000.0, irregularity=0.3, seed=7_000_021 + i)
        disks[tx.id] = enclosing_disk(raster, tx)

    results = []
    for label, gridref in PLACES.items():
        result = availability(db, disks, plan, QueryParams(parse_gridref(gridref), 0.1, prop))
        results.append(result)
        print(
            f"  {label:15s} rho={result.rho:2d} ({8 * result.rho} MHz), "
            f"after N+-1 filter {len(adjacent_filter(result)):2d}, "
            f"widest block {contiguity(result.vacant)[1]} MHz"
        )
    rows = build_report(list(PLACES), results, plan, prop.alpha, prop.beta_th)

    OUT.mkdir(exist_ok=True)
    (OUT / "synthetic_places.csv").write_text(emit_csv(rows))
    (OUT / "synthetic_manchester.svg").write_text(emit_channel_chart(rows, plan))  # first row
    print(f"wrote {OUT / 'synthetic_places.csv'} and a channel chart SVG")


if __name__ == "__main__":
    demo()

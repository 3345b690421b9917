"""Golden tests pinning the tower spec text format."""

from nilbott.towers import (
    TowerSpec,
    build_tower_groups,
    format_tower_spec,
    parse_tower_spec,
)


GOLDEN_TOWER = """nilbott-tower v1
stage 1: S1
stage 2: base=S1 phi={g:-1}
stage 3: base=K phi={g:-1,h:+1} k=3
"""

GOLDEN_TOWER_DEPTH4 = """nilbott-tower v1
stage 1: S1
stage 2: phi={g:+1}
stage 3: phi={g:+1,h:+1} k=0
stage 4: phi={g:+1,h:+1,n:+1} k=1,0,0
"""

def test_tower_golden_bytes():
    spec = TowerSpec.depth3("K", (-1, 1), 3)
    assert format_tower_spec(spec) == GOLDEN_TOWER
    assert parse_tower_spec(GOLDEN_TOWER) == spec


def test_tower_depth4_golden():
    spec = parse_tower_spec(GOLDEN_TOWER_DEPTH4)
    assert spec.depth == 4
    assert spec.stages[3].lifts == (1, 0, 0)
    assert format_tower_spec(spec) == GOLDEN_TOWER_DEPTH4
    groups = build_tower_groups(spec)
    assert groups[3].names == ("g", "h", "n", "m")

"""Self-test: corrupted operation results are counted by the benchmark's checks.

Run from the repository root:

    python3 -m pytest -q -p no:cacheprovider perfbench/test_checks.py
"""

import copy
import dataclasses
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from graffassoc import CampaignConfig, rotation_about_axis  # noqa: E402

from checks import Tally, check_association, check_campaign  # noqa: E402
from workloads import CampaignMix, MatchSmall  # noqa: E402


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """One real `match` result on the easiest rung, plus its input."""
    w = MatchSmall()
    w.n_scored = 1
    inp = w.build(7, tmp_path_factory.mktemp("scans"))[0]
    exit_code = w.run(inp)
    doc = json.loads(Path(inp.out_path).read_text())
    assert exit_code == 0 and doc["status"] == "ok"
    return w, inp, exit_code, doc


def tally_of(w, inp, exit_code, doc):
    """Feed one (possibly corrupted) result document through the workload's check."""
    Path(inp.out_path).write_text(json.dumps(doc))
    tally = Tally()
    problems, results, _ = w.check(inp, exit_code, 0.01)
    tally.add(problems, results)
    return tally


def test_genuine_result_passes(small):
    tally = tally_of(*small)
    assert tally.error_rate == 0.0
    assert tally.quality()["accept_rate"] == 1.0
    assert tally.quality()["wrong_transform_rate"] == 0.0


def test_out_of_range_correspondence_raises_error_rate(small):
    w, inp, exit_code, doc = small
    bad = copy.deepcopy(doc)
    bad["correspondences"][0] = [len(inp.kinds_a), 0]
    assert tally_of(w, inp, exit_code, bad).error_rate == 1.0


def test_duplicate_correspondence_raises_error_rate(small):
    w, inp, exit_code, doc = small
    bad = copy.deepcopy(doc)
    bad["correspondences"].append(list(bad["correspondences"][0]))
    assert tally_of(w, inp, exit_code, bad).error_rate == 1.0


def test_improper_rotation_raises_error_rate(small):
    w, inp, exit_code, doc = small
    bad = copy.deepcopy(doc)
    bad["rotation"] = (np.asarray(doc["rotation"]) @ np.diag([1.0, 1.0, -1.0])).tolist()
    assert tally_of(w, inp, exit_code, bad).error_rate == 1.0


def test_exit_code_must_match_status(small):
    w, inp, _, doc = small
    assert tally_of(w, inp, 2, doc).error_rate == 1.0


def test_rotation_off_by_ten_degrees_is_a_wrong_transform(small):
    w, inp, exit_code, doc = small
    off = copy.deepcopy(doc)
    off["rotation"] = (inp.pair.truth.R @ rotation_about_axis([0.0, 0.0, 1.0], math.radians(10.0))).tolist()
    off["translation"] = inp.pair.truth.t.tolist()
    tally = tally_of(w, inp, exit_code, off)
    assert tally.error_rate == 0.0
    assert tally.quality()["wrong_transform_rate"] == 1.0
    assert tally.quality()["accept_rate"] == 0.0


def test_campaign_record_count_is_checked():
    w = CampaignMix()
    cfg = CampaignConfig(seed=3, trials=1, tiers=("easy",), distance_fns=("graff_shifted", "gr_only"))
    records = w.run(cfg)
    assert check_campaign(records, cfg) == []
    assert check_campaign(records[:-1], cfg) != []
    broken = dataclasses.replace(records[0], result=dataclasses.replace(records[0].result, accept=True, failed=True))
    assert check_campaign([broken] + records[1:], cfg) != []


def test_association_checks(small):
    _, inp, _, _ = small
    from graffassoc import associate_scans

    assoc = associate_scans(inp.pair.scan_i, inp.pair.scan_j)
    assert check_association(assoc, inp.kinds_a, inp.kinds_b) == []
    improper = SimpleNamespace(R=assoc.transform.R @ np.diag([1.0, 1.0, -1.0]), t=assoc.transform.t)
    assert check_association(dataclasses.replace(assoc, transform=improper), inp.kinds_a, inp.kinds_b) != []
    assert check_association(dataclasses.replace(assoc, transform=None), inp.kinds_a, inp.kinds_b) != []

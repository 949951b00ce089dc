"""simulate records do not depend on the order of the noise lists.

Every reduction that feeds a printed figure is math.fsum, which is exactly
rounded, so listing a `general` config's noise components in another order
must print the same `simulate --reproducible` record, apart from the echoed
config. Configs carry 3 to 6 bit-flip components per degree of freedom,
where a plain left-to-right sum starts to depend on the order. Examples are
derandomized, so every run draws the same inputs.
"""

import contextlib
import io
import json
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ghzpurify import noise
from ghzpurify.cli import main


@st.composite
def reordered_configs(draw):
    """A general config and the same config with both noise lists shuffled."""
    m = draw(st.integers(3, 8))
    indices = st.integers(1, 2 ** (m - 1) - 1)

    def components():
        n = draw(st.integers(3, min(6, 2 ** (m - 1) - 1)))
        where = draw(st.lists(indices, min_size=n, max_size=n, unique=True))
        # at most 0.15 each, so six of them leave the reference weight positive
        weights = draw(st.lists(st.integers(1, 150_000), min_size=n, max_size=n))
        return [{"kind": "bit-flip", "target_index": i, "weight": w / 1e6} for i, w in zip(where, weights)]

    pol, spatial = components(), components()
    target = draw(st.sampled_from(["0+"] + [f"{c['target_index']}+" for c in pol]))
    config = {"m": m, "mode": "general", "pol_noise": pol, "spatial_noise": spatial, "target": target, "seed": 0}
    shuffled = dict(config, pol_noise=draw(st.permutations(pol)), spatial_noise=draw(st.permutations(spatial)))
    return config, shuffled


def printed_figures(config: dict) -> str:
    """The simulate --reproducible JSON record of a config, without its config echo."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["simulate", str(path), "--reproducible", "--format", "json"])
    if code != 0:
        # not an AssertionError: only a difference between the records fails the property
        raise RuntimeError(f"simulate exited {code} on {config!r}")
    record = json.loads(out.getvalue())
    del record["config"]
    return json.dumps(record, indent=2)


# No shrink phase: a failing example is already small, and shrinking a pair
# of permutations takes about 20 s.
@settings(
    derandomize=True, database=None, deadline=None, max_examples=60,
    phases=(Phase.explicit, Phase.generate), report_multiple_bugs=False,
)
@given(pair=reordered_configs())
def test_record_independent_of_noise_order(pair):
    config, shuffled = pair
    assert printed_figures(shuffled) == printed_figures(config)


def test_order_test_catches_a_plain_sum(monkeypatch):
    """Mutant: noise.ghz_weights and mix_general add with the builtin sum; the order test must fail."""
    monkeypatch.setattr(noise, "math", types.SimpleNamespace(fsum=sum))
    with pytest.raises(AssertionError):
        test_record_independent_of_noise_order()

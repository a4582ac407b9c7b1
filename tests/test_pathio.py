import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings

import hjsim
from hjsim import pathio

from helpers import em_cfg, ou_cfg, reference_model, simulation_runs, two_component_model

JSONL_SHA256 = "891b8727e4b62f78f25ece3bd357ee6db650f3a8ddfa1f6f30ce1fb236d909e1"


def sample_path(seed=17):
    return hjsim.simulate_path(reference_model(), 20.0, ou_cfg(0.5), seed=seed)


def assert_paths_equal(a, b):
    assert np.array_equal(a.event_times, b.event_times)
    assert np.array_equal(a.event_components, b.event_components)
    assert np.array_equal(a.skeleton_times, b.skeleton_times)
    assert np.array_equal(a.skeleton_x, b.skeleton_x)
    assert np.array_equal(a.skeleton_row_sums, b.skeleton_row_sums)
    assert a.horizon == b.horizon
    assert a.seed == b.seed
    assert a.model_hash == b.model_hash


class TestJsonl:
    def test_round_trip(self):
        path = sample_path()
        buf = io.StringIO(pathio.dumps_jsonl(path).decode())
        assert_paths_equal(path, pathio.read_jsonl(buf))

    def test_merge_order_around_events(self):
        path = sample_path()
        lines = [json.loads(l) for l in pathio.dumps_jsonl(path).decode().splitlines()]
        assert lines[0]["kind"] == "header"
        body = lines[1:]
        times = [r["t"] for r in body]
        assert times == sorted(times)
        for k, rec in enumerate(body):
            if rec["kind"] == "event":
                assert body[k - 1]["kind"] == "sample"
                assert body[k - 1]["t"] == rec["t"]
                assert body[k + 1]["kind"] == "sample"
                assert body[k + 1]["t"] == rec["t"]

    def test_bytes_are_pinned(self):
        # the jsonl text of two fixed paths, byte for byte
        h = hashlib.sha256(pathio.dumps_jsonl(sample_path()))
        h.update(pathio.dumps_jsonl(hjsim.simulate_path(two_component_model(), 20.0,
                                                        em_cfg(0.25, 0.05), seed=23)))
        assert h.hexdigest() == JSONL_SHA256

    def test_rejects_other_streams(self):
        with pytest.raises(ValueError):
            pathio.read_jsonl(io.StringIO('{"kind":"other"}\n'))


class TestBinary:
    def test_round_trip(self):
        path = sample_path()
        buf = io.BytesIO(pathio.dumps_binary(path))
        assert_paths_equal(path, pathio.read_binary(buf))

    def test_header_layout(self):
        path = sample_path()
        blob = pathio.dumps_binary(path)
        assert blob[:4] == b"HJSM"
        assert int.from_bytes(blob[4:6], "little") == pathio.FORMAT_VERSION
        assert int.from_bytes(blob[8:12], "little") == 1  # M
        assert int.from_bytes(blob[16:24], "little") == path.n_events
        assert blob[48:80].hex() == path.model_hash

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            pathio.read_binary(io.BytesIO(b"NOPE" + b"\x00" * 76))

    @pytest.mark.parametrize("where", ["events", "samples"])
    def test_truncated_body_names_byte_counts(self, where):
        blob = pathio.dumps_binary(sample_path())
        body = len(blob) - 80
        kept = 5 if where == "events" else body - 1
        with pytest.raises(ValueError, match=f"truncated.*need {body} bytes.*holds {kept}$"):
            pathio.read_binary(io.BytesIO(blob[:80 + kept]))

    def test_trailing_bytes_name_byte_counts(self):
        blob = pathio.dumps_binary(sample_path())
        body = len(blob) - 80
        with pytest.raises(ValueError, match=f"trailing.*need {body} bytes.*holds {body + 3}$"):
            pathio.read_binary(io.BytesIO(blob + b"\x00" * 3))

    def test_empty_path_round_trip(self):
        path = hjsim.simulate_path(reference_model(), 1e-9, ou_cfg(0.01), seed=3)
        buf = io.BytesIO(pathio.dumps_binary(path))
        assert_paths_equal(path, pathio.read_binary(buf))

    def test_two_component_round_trip_both_formats(self):
        from helpers import two_component_model
        path = hjsim.simulate_path(two_component_model(), 15.0, ou_cfg(0.5), seed=21)
        assert path.n_components == 2
        assert_paths_equal(path, pathio.read_binary(io.BytesIO(pathio.dumps_binary(path))))
        assert_paths_equal(path, pathio.read_jsonl(io.StringIO(pathio.dumps_jsonl(path).decode())))


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(simulation_runs())
    def test_both_formats_return_the_path(self, run):
        model, horizon, cfg, extra, seed = run
        path = hjsim.simulate_path(model, horizon, cfg, seed, sample_at=extra)
        blob = pathio.dumps_binary(path)
        back = pathio.read_binary(io.BytesIO(blob))
        assert_paths_equal(path, back)
        assert pathio.dumps_binary(back) == blob
        assert_paths_equal(path, pathio.read_jsonl(io.StringIO(pathio.dumps_jsonl(path).decode())))

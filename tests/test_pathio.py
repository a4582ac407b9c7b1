import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hjsim
from hjsim import cli, pathio
from hjsim.model import model_to_dict

from helpers import (BOUNDARY_FLOATS, em_cfg, formatted, jsonl_oracle, ou_cfg, reference_model,
                     simulation_runs, two_component_model, written_paths)

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


def _signed_zeros_path():
    """Consecutive records whose t, x and row sums differ only in the sign of
    a zero, and an event between two samples at its time."""
    zeros = [0.0, -0.0, 0.0, -0.0, -0.0]
    return hjsim.Path(event_times=[0.25], event_components=[2],
                      skeleton_times=[0.0, -0.0, 0.0, 0.25, 0.25], skeleton_x=zeros,
                      skeleton_row_sums=np.array([zeros, zeros[::-1]]).T, horizon=1.0, seed=3,
                      model_hash="ab" * 32)


def _block_edge_path():
    """Events whose time repeats across the writer's 768-sample block edge:
    samples 765 and 766 share the first event's time, samples 767 (the
    block's last) and 768 (the next block's first) the second one's."""
    times = np.arange(1000) * 0.25
    times[766], times[768] = times[765], times[767]
    return hjsim.Path(event_times=[times[765], times[767]], event_components=[1, 3],
                      skeleton_times=times, skeleton_x=np.cos(times),
                      skeleton_row_sums=np.sin(times)[:, None] * [1.0, -0.5, 2.0],
                      horizon=250.0, seed=5, model_hash="ab" * 32)


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

    def test_reads_a_cli_file_as_binary_or_as_text(self, tmp_path):
        config = tmp_path / "model.json"
        config.write_text(json.dumps(model_to_dict(two_component_model())))
        out = tmp_path / "runs"
        assert cli.main(["simulate", "--config", str(config), "--horizon", "20", "--seed", "23",
                         "--grid-dt", "0.25", "--em-step", "0.05", "--out", str(out)]) == 0
        with open(out / "path_00000.jsonl", "rb") as fh:
            path = pathio.read_jsonl(fh)
        text = (out / "path_00000.jsonl").read_text(encoding="utf-8")
        assert_paths_equal(path, pathio.read_jsonl(io.StringIO(text)))
        assert path.n_events > 0 and len(path.skeleton_times) > 80

    def test_blank_lines_are_skipped(self):
        path = sample_path()
        lines = pathio.dumps_jsonl(path).splitlines(keepends=True)
        padded = b"".join([lines[0], b"\n", *lines[1:3], b"  \n", b"\n", *lines[3:], b"\n"])
        assert_paths_equal(path, pathio.read_jsonl(io.BytesIO(padded)))

    def test_rejects_other_streams(self):
        with pytest.raises(ValueError):
            pathio.read_jsonl(io.StringIO('{"kind":"other"}\n'))

    @settings(max_examples=150, deadline=None)
    @given(written_paths())
    @example(_signed_zeros_path())
    @example(_block_edge_path())
    def test_writer_equals_one_encoder_call_per_record(self, path):
        blob = pathio.dumps_jsonl(path)
        assert blob == jsonl_oracle(path)
        buf = io.BytesIO()
        pathio.write_jsonl(path, buf)
        assert buf.getvalue() == blob

    def test_simulated_paths_equal_the_oracle(self):
        for path in (sample_path(), hjsim.simulate_path(two_component_model(), 20.0,
                                                        em_cfg(0.25, 0.05), seed=23)):
            assert pathio.dumps_jsonl(path) == jsonl_oracle(path)

    def test_writer_memory_does_not_grow_with_the_path(self):
        class Discard:
            def writelines(self, lines):
                for _ in lines:
                    pass

        def peak(records):
            # an M = 3 path: nine samples, then an event between two of them
            n = records // 10 * 9
            times = np.arange(n) * 0.5
            events = np.arange(records // 10) * 4.5 + 0.25
            path = hjsim.Path(event_times=events, event_components=np.arange(len(events)) % 3 + 1,
                              skeleton_times=times, skeleton_x=np.sin(times),
                              skeleton_row_sums=np.cos(times)[:, None] * [1.0, -2.0, 3.0],
                              horizon=float(n), seed=0, model_hash="ab" * 32)
            tracemalloc.start()
            try:
                pathio.write_jsonl(path, Discard())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(200_000) - peak(20_000)) < 0.5e6


class TestFloatText:
    # the writer's array formatter against the encoder: repr, with NaN,
    # Infinity and -Infinity for the non-finite values
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.floats(-1e15, 1e15), min_size=1, max_size=40))
    def test_equals_the_encoder(self, values):
        assert formatted(values) == [pathio._ENCODER.encode(v) for v in values]

    def test_boundaries_equal_the_encoder(self):
        values = BOUNDARY_FLOATS + [-v for v in BOUNDARY_FLOATS]
        assert formatted(values) == [pathio._ENCODER.encode(v) for v in values]


def _stream(*replace):
    """The JSONL lines of a short two-component path (M = 2; line 2 is a
    sample and line ``_EVENT_LINE`` an event), with the given (line number,
    text) pairs put in."""
    path = hjsim.simulate_path(two_component_model(), 5.0, ou_cfg(0.5), seed=21)
    lines = pathio.dumps_jsonl(path).decode().splitlines()
    for line, text in replace:
        lines[line - 1] = text
    return io.StringIO("\n".join(lines) + "\n")


_EVENT_LINE = next(k for k, text in enumerate(_stream().read().splitlines(), 1)
                   if '"event"' in text)


class TestReadJsonlErrors:
    # every malformed stream is a ValueError that names its 1-based line
    @pytest.mark.parametrize("line,text", [
        pytest.param(1, "[1, 2]", id="header-not-an-object"),
        pytest.param(2, "3", id="record-not-an-object"),
        pytest.param(2, '{"kind":"sample","t":0.0', id="not-json"),
        pytest.param(2, '{"kind":"sample","t":0.0,"row_sums":[0.0,0.0]}', id="no-x"),
        pytest.param(2, '{"kind":"sample","t":0.0,"x":"0.0","row_sums":[0.0,0.0]}',
                     id="x-a-string"),
        pytest.param(2, '{"kind":"sample","t":0.0,"x":0.0,"row_sums":[0.0]}',
                     id="one-row-sum-for-m-2"),
        pytest.param(2, '{"kind":"sample","t":0.0,"x":0.0,"row_sums":[0.0,0.0,0.0]}',
                     id="three-row-sums-for-m-2"),
        pytest.param(2, '{"kind":"jump","t":0.0}', id="unknown-kind"),
        pytest.param(2, '{"kind":"sample","t":0.0,"x":1%s,"row_sums":[0.0,0.0]}' % ("0" * 400),
                     id="x-beyond-the-float-range"),
        pytest.param(_EVENT_LINE, '{"kind":"event","t":1.0,"component":1.5}',
                     id="component-not-an-integer"),
        pytest.param(_EVENT_LINE, '{"kind":"event","t":1.0,"component":"1"}',
                     id="component-a-string"),
        pytest.param(_EVENT_LINE, '{"kind":"event","t":1.0,"component":3}',
                     id="component-above-m"),
        pytest.param(_EVENT_LINE, '{"kind":"event","component":1}', id="no-t"),
    ])
    def test_bad_record_names_its_line(self, line, text):
        with pytest.raises(ValueError, match=f"^line {line}: "):
            pathio.read_jsonl(_stream((line, text)))

    @pytest.mark.parametrize("drop", ["version", "M", "horizon", "seed", "model_digest"])
    def test_header_missing_a_field_names_line_1(self, drop):
        header = json.loads(_stream().readline())
        del header[drop]
        with pytest.raises(ValueError, match="^line 1: "):
            pathio.read_jsonl(_stream((1, json.dumps(header))))

    def test_header_with_non_integer_m_names_line_1(self):
        header = json.loads(_stream().readline())
        header["M"] = 2.0
        with pytest.raises(ValueError, match="^line 1: "):
            pathio.read_jsonl(_stream((1, json.dumps(header))))

    @pytest.mark.parametrize("changes", [
        pytest.param({"horizon": float("nan")}, id="nan-horizon"),
        pytest.param({"horizon": float("inf")}, id="infinite-horizon"),
        pytest.param({"horizon": -2.0}, id="negative-horizon"),
        pytest.param({"seed": -3}, id="negative-seed"),
        pytest.param({"seed": 2 ** 64}, id="seed-past-64-bits"),
        pytest.param({"model_digest": "zz"}, id="digest-not-hex"),
        pytest.param({"model_digest": "ab" * 31}, id="digest-of-62-digits"),
        pytest.param({"seed": -3, "model_digest": "zz"}, id="negative-seed-and-bad-digest"),
        pytest.param({"version": 2}, id="version-2"),
        pytest.param({"version": "1"}, id="version-a-string"),
        pytest.param({"version": True}, id="version-true"),
    ])
    def test_header_out_of_range_names_line_1(self, changes):
        # json.dumps writes NaN and Infinity, as the writer does
        header = {**json.loads(_stream().readline()), **changes}
        with pytest.raises(ValueError, match="^line 1: "):
            pathio.read_jsonl(_stream((1, json.dumps(header))))

    def test_header_at_the_range_ends_reads(self):
        header = {**json.loads(_stream().readline()), "seed": 2 ** 64 - 1}
        path = pathio.read_jsonl(_stream((1, json.dumps(header))))
        assert path.seed == 2 ** 64 - 1
        assert pathio.read_binary(io.BytesIO(pathio.dumps_binary(path))).seed == 2 ** 64 - 1

    def test_empty_stream_names_line_1(self):
        with pytest.raises(ValueError, match="^line 1: "):
            pathio.read_jsonl(io.StringIO(""))

    def test_decreasing_times_behind_a_nan_are_rejected(self):
        # samples at t = 0, 0.5 (line 3), NaN, then 0.2
        lines = _stream().read().splitlines()
        sample = '{"kind":"sample","t":%s,"x":0.0,"row_sums":[0.0,0.0]}'
        text = "\n".join([lines[0]] + [sample % t for t in ("0.0", "0.5", "NaN", "0.2")])
        with pytest.raises(ValueError, match="skeleton times must be finite and nondecreasing"):
            pathio.read_jsonl(io.StringIO(text + "\n"))

    def test_the_unedited_stream_reads(self):
        assert pathio.read_jsonl(_stream()).n_components == 2


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

    @pytest.mark.parametrize("cut, version, message", [
        (79, 1, "truncated binary path file"), (None, 2, "unsupported format version 2")])
    def test_short_header_or_other_version_is_refused(self, cut, version, message):
        blob = bytearray(pathio.dumps_binary(sample_path()))
        blob[4:6] = version.to_bytes(2, "little")
        with pytest.raises(ValueError, match=f"^{message}$"):
            pathio.read_binary(io.BytesIO(bytes(blob[:cut])))

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -2.0])
    def test_horizon_not_finite_or_negative_is_refused(self, horizon):
        blob = bytearray(pathio.dumps_binary(sample_path()))
        blob[32:40] = np.float64(horizon).tobytes()
        with pytest.raises(ValueError, match="horizon must be finite and >= 0"):
            pathio.read_binary(io.BytesIO(bytes(blob)))

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

    def test_decreasing_times_behind_a_nan_are_rejected(self):
        path = sample_path()
        blob = bytearray(pathio.dumps_binary(path))
        # the first sample record follows the header and the events
        at = 80 + path.n_events * pathio._EVENT_DTYPE.itemsize
        width = 8 * (2 + path.n_components)
        for i, t in enumerate([0.0, 0.5, np.nan, 0.2]):
            blob[at + i * width:at + i * width + 8] = np.float64(t).tobytes()
        with pytest.raises(ValueError, match="skeleton times must be finite and nondecreasing"):
            pathio.read_binary(io.BytesIO(bytes(blob)))

    @pytest.mark.parametrize("times, components, message", [
        ([np.nan], [1], "finite and in"),
        ([0.5], [7], r"1\.\.M = 1"),
        ([0.0], [1], "finite and in"),
        ([25.0], [1], "finite and in"),
    ])
    def test_events_the_jsonl_reader_refuses_are_refused(self, times, components, message):
        # the frame holds what Path checks: bytes written around its checks
        path = sample_path()
        fields = {name: getattr(path, name) for name in (
            "skeleton_times", "skeleton_x", "skeleton_row_sums", "horizon", "seed", "model_hash")}
        bad = hjsim.Path._built(event_times=np.array(times), event_components=np.array(components),
                                **fields)
        with pytest.raises(ValueError, match=message):
            pathio.read_binary(io.BytesIO(pathio.dumps_binary(bad)))

    def test_zero_components_are_refused(self):
        blob = bytearray(pathio.dumps_binary(hjsim.simulate_path(reference_model(), 1e-9,
                                                                 ou_cfg(0.01), seed=3)))
        blob[8:12] = (0).to_bytes(4, "little")   # M = 0: each sample record is (t, x)
        n_samples = int.from_bytes(blob[24:32], "little")
        body = blob[80:80 + 16 * n_samples]
        with pytest.raises(ValueError, match="M >= 1"):
            pathio.read_binary(io.BytesIO(bytes(blob[:80] + body)))

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


class TestPathChecks:
    """The public constructor refuses what no simulation makes; engine-built
    paths skip these checks."""

    def fields(self, **changes):
        fields = dict(event_times=[0.5, 1.0], event_components=[1, 2],
                      skeleton_times=[0.0, 0.5, 0.5, 1.0, 1.0, 2.0], skeleton_x=np.zeros(6),
                      skeleton_row_sums=np.zeros((6, 2)), horizon=2.0, seed=0, model_hash="")
        fields.update(changes)
        return fields

    def test_valid_fields_construct(self):
        assert hjsim.Path(**self.fields()).n_components == 2

    @pytest.mark.parametrize("changes, message", [
        (dict(event_times=[0.5, np.nan]), "finite and in"),
        (dict(event_times=[0.5, np.inf], horizon=np.inf), "finite and in"),
        (dict(event_times=[0.0, 1.0]), "finite and in"),
        (dict(event_times=[-0.5, 1.0]), "finite and in"),
        (dict(event_times=[0.5, 2.5]), "finite and in"),
        (dict(event_components=[0, 2]), r"1\.\.M = 2"),
        (dict(event_components=[1, 3]), r"1\.\.M = 2"),
        (dict(skeleton_row_sums=np.zeros((6, 0)), event_times=[], event_components=[]),
         "M >= 1"),
        (dict(event_components=[1]), "as many event components"),
        (dict(skeleton_x=np.zeros(5)), "as many skeleton x"),
        (dict(skeleton_row_sums=np.zeros((5, 2))), "as many skeleton x"),
        (dict(skeleton_row_sums=np.zeros(6)), "row-sum rows"),
        (dict(seed=-1), r"0\.\.2\*\*64 - 1, got -1"),
        (dict(seed=2 ** 64), r"0\.\.2\*\*64 - 1, got 18446744073709551616"),
    ])
    def test_invalid_fields_are_refused(self, changes, message):
        with pytest.raises(ValueError, match=message):
            hjsim.Path(**self.fields(**changes))

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seeds_at_the_64_bit_ends_round_trip_byte_exact(self, seed):
        path = hjsim.Path(**self.fields(seed=seed, model_hash="ab" * 32))
        blob, text = pathio.dumps_binary(path), pathio.dumps_jsonl(path)
        for back in (pathio.read_binary(io.BytesIO(blob)), pathio.read_jsonl(io.BytesIO(text))):
            assert_paths_equal(path, back)
            assert pathio.dumps_binary(back) == blob and pathio.dumps_jsonl(back) == text


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

"""Wire codec conformance: seeded round-trips and strict rejection.

Satellite 2 of the gateway PR: every typed body must survive
``encode`` → ``parse`` bit-for-bit over randomized payloads (shapes,
precisions, norms, deadlines, unicode tenant ids), and every malformed
payload must be refused with a typed :class:`WireError` — never a stack
trace, never a silently coerced value.
"""

import base64
import binascii
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft.normalization import NORMS
from repro.serve import (
    AcceptedBody,
    ErrorBody,
    ErrorCode,
    StatusBody,
    SubmitBody,
    WireError,
    decode_array,
    encode_array,
)
from repro.serve.wire import DTYPES, JOB_STATES, _b64decode
from tests.serve.gateway.conftest import grid

#: Tenant ids stressing the unicode surface of the JSON codec.
TENANTS = ("acme", "租户-β-🙂", "ténant", "Ω" * 40)


class TestArrayCodec:
    def test_round_trip_both_precisions(self):
        for precision, dtype in DTYPES.items():
            x = grid(3, (4, 6, 8), precision)
            out = decode_array(encode_array(x), (4, 6, 8), dtype)
            assert out.dtype == x.dtype
            assert np.array_equal(out, x)

    def test_big_endian_input_lands_little_endian_on_wire(self):
        x = grid(5, (2, 3, 4)).astype(">c8")
        payload = encode_array(x)
        assert payload == x.astype("<c8").tobytes()
        out = decode_array(payload, (2, 3, 4), DTYPES["single"])
        assert np.array_equal(out, x.astype(np.complex64))

    def test_non_contiguous_input_is_canonicalized(self):
        base = grid(7, (4, 4, 8))
        view = base[:, ::2, ::-1]
        payload = encode_array(view)
        out = decode_array(payload, view.shape, DTYPES["single"])
        assert np.array_equal(out, view)

    def test_decoded_array_is_writable(self):
        x = grid(1, (2, 2, 2))
        out = decode_array(encode_array(x), (2, 2, 2), DTYPES["single"])
        out[0, 0, 0] = 0  # frombuffer alone would be read-only

    @pytest.mark.parametrize("off_by", [-16, -1, 1, 16])
    def test_length_mismatch_is_typed(self, off_by):
        x = grid(2, (2, 2, 2))
        payload = encode_array(x)
        bad = payload[:off_by] if off_by < 0 else payload + b"\0" * off_by
        with pytest.raises(WireError, match="needs exactly"):
            decode_array(bad, (2, 2, 2), DTYPES["single"])


class TestSubmitRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_seeded_payloads_survive_the_wire(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, 9, size=3))
        precision = rng.choice(list(DTYPES))
        body = SubmitBody(
            shape=shape,
            data=grid(seed, shape, precision),
            precision=precision,
            norm=rng.choice(list(NORMS)),
            inverse=bool(rng.integers(2)),
            priority=int(rng.integers(-5, 6)),
            deadline_s=None if rng.integers(2) else float(rng.uniform(0.001, 10)),
            tenant=TENANTS[int(rng.integers(len(TENANTS)))],
        )
        parsed = SubmitBody.parse(body.encode())
        assert parsed.shape == body.shape
        assert parsed.precision == body.precision
        assert parsed.norm == body.norm
        assert parsed.inverse == body.inverse
        assert parsed.priority == body.priority
        assert parsed.deadline_s == body.deadline_s
        assert parsed.tenant == body.tenant
        assert parsed.data.dtype == body.data.dtype
        assert np.array_equal(parsed.data, body.data)

    def test_defaults_fill_in(self):
        x = grid(0, (2, 2, 2))
        raw = json.dumps(
            {
                "shape": [2, 2, 2],
                "data_b64": base64.b64encode(encode_array(x)).decode(),
            }
        ).encode()
        parsed = SubmitBody.parse(raw)
        assert parsed.precision == "single"
        assert parsed.norm == "backward"
        assert parsed.inverse is False
        assert parsed.priority == 0
        assert parsed.deadline_s is None
        assert parsed.tenant is None

    def test_encode_is_canonical_and_deterministic(self):
        body = SubmitBody(shape=(2, 2, 2), data=grid(0, (2, 2, 2)))
        assert body.encode() == body.encode()
        assert json.loads(body.encode()) == json.loads(
            SubmitBody.parse(body.encode()).encode()
        )


def _submit_dict(**overrides):
    """A valid submit JSON dict, with ``overrides`` spliced in."""
    x = grid(0, (2, 2, 2))
    body = {
        "shape": [2, 2, 2],
        "data_b64": base64.b64encode(encode_array(x)).decode(),
    }
    body.update(overrides)
    return {k: v for k, v in body.items() if v is not ...}


class TestSubmitRejection:
    @pytest.mark.parametrize(
        "raw",
        [b"", b"not json", b"\xff\xfe", b"[1, 2]", b'"a string"', b"42"],
        ids=["empty", "garbage", "bad-utf8", "array", "string", "number"],
    )
    def test_non_object_bodies(self, raw):
        with pytest.raises(WireError) as err:
            SubmitBody.parse(raw)
        assert err.value.code is ErrorCode.BAD_REQUEST

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"surprise": 1}, "unknown fields"),
            ({"shape": ...}, "shape"),
            ({"shape": [2, 2]}, "shape"),
            ({"shape": [2, 2, 2, 2]}, "shape"),
            ({"shape": [2, 2, 0]}, "shape"),
            ({"shape": [2, 2, -4]}, "shape"),
            ({"shape": [2.0, 2, 2]}, "shape"),
            ({"shape": [True, True, True]}, "shape"),
            ({"shape": "2x2x2"}, "shape"),
            ({"precision": "half"}, "precision"),
            ({"precision": 32}, "precision"),
            ({"norm": "sideways"}, "norm"),
            ({"inverse": 1}, "inverse"),
            ({"inverse": "yes"}, "inverse"),
            ({"priority": 1.5}, "priority"),
            ({"priority": True}, "priority"),
            ({"deadline_s": 0}, "deadline_s"),
            ({"deadline_s": -1.0}, "deadline_s"),
            ({"deadline_s": True}, "deadline_s"),
            ({"deadline_s": "soon"}, "deadline_s"),
            ({"tenant": ""}, "tenant"),
            ({"tenant": 7}, "tenant"),
            ({"data_b64": ...}, "data_b64"),
            ({"data_b64": 12}, "data_b64"),
            ({"data_b64": "!!! not base64 !!!"}, "base64"),
            ({"data_b64": "データ"}, "base64"),
        ],
    )
    def test_bad_fields_are_bad_request(self, overrides, match):
        raw = json.dumps(_submit_dict(**overrides)).encode()
        with pytest.raises(WireError, match=match) as err:
            SubmitBody.parse(raw)
        assert err.value.code is ErrorCode.BAD_REQUEST

    def test_nan_and_inf_deadlines_rejected(self):
        # json.dumps would emit non-standard NaN literals; build by hand.
        for literal in ("NaN", "Infinity"):
            raw = json.dumps(_submit_dict(deadline_s=0)).replace(
                '"deadline_s": 0', f'"deadline_s": {literal}'
            )
            with pytest.raises(WireError, match="deadline_s"):
                SubmitBody.parse(raw.encode())

    def test_base64_decode_accepts_exactly_what_b64decode_validates(self):
        # _b64decode skips b64decode's ASCII copy; acceptance must not move.
        def outcome(decode, text):
            try:
                return decode(text)
            except (UnicodeEncodeError, binascii.Error, ValueError):
                return "refused"

        def stdlib(text):
            return base64.b64decode(text.encode("ascii"), validate=True)

        texts = ["データ", "QUJD\u00e9"] + [
            "".join(t)
            for n in range(6)
            for t in itertools.product("AQw+/= \n", repeat=n)
        ]
        for text in texts:
            assert outcome(_b64decode, text) == outcome(stdlib, text), text

    def test_payload_length_mismatch(self):
        raw = json.dumps(
            _submit_dict(data_b64=base64.b64encode(b"\0" * 8).decode())
        ).encode()
        with pytest.raises(WireError, match="needs exactly") as err:
            SubmitBody.parse(raw)
        assert err.value.code is ErrorCode.BAD_REQUEST

    def test_oversized_shape_is_payload_too_large_before_decode(self):
        # The declared shape alone trips the bound: no 2 GiB body needed.
        raw = json.dumps(_submit_dict(shape=[1024, 1024, 1024])).encode()
        with pytest.raises(WireError, match="at most") as err:
            SubmitBody.parse(raw, max_bytes=1 << 20)
        assert err.value.code is ErrorCode.PAYLOAD_TOO_LARGE

    def test_within_bound_passes(self):
        raw = json.dumps(_submit_dict()).encode()
        assert SubmitBody.parse(raw, max_bytes=1 << 20).shape == (2, 2, 2)


class TestResponseBodies:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_accepted_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        body = AcceptedBody(
            job_id=f"j{seed:08d}-beef",
            tenant=TENANTS[int(rng.integers(len(TENANTS)))],
            plan="16x16x16-single-backward-fwd",
            queue_depth=int(rng.integers(0, 1000)),
        )
        assert AcceptedBody.parse(body.encode()) == body

    def test_accepted_missing_field(self):
        with pytest.raises(WireError, match="accepted"):
            AcceptedBody.parse(b'{"job_id": "j"}')

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_status_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        state = JOB_STATES[int(rng.integers(len(JOB_STATES)))]
        body = StatusBody(
            job_id=f"j{seed:08d}-beef",
            state=state,
            tenant=TENANTS[int(rng.integers(len(TENANTS)))],
            plan="8x8x8-double-ortho-inv",
            batch_id=None if rng.integers(2) else int(rng.integers(100)),
            batch_size=int(rng.integers(0, 16)),
            worker=int(rng.integers(0, 4)),
            requeues=int(rng.integers(0, 3)),
            faulted=bool(rng.integers(2)),
            queue_wait_s=float(rng.uniform(0, 1)),
            error_code=None if state != "failed" else "requeue_exhausted",
            error_message=None if state != "failed" else "boom",
        )
        assert StatusBody.parse(body.encode()) == body

    def test_status_rejects_unknown_state(self):
        raw = StatusBody(
            job_id="j", state="queued", tenant="t", plan="p"
        ).encode()
        bad = raw.replace(b'"queued"', b'"enqueued"')
        with pytest.raises(WireError, match="state"):
            StatusBody.parse(bad)

    def test_error_round_trip_over_all_codes(self):
        for code in ErrorCode:
            body = ErrorBody(code=code, message=f"m-{code}", retry_after_s=0.5)
            parsed = ErrorBody.parse(body.encode())
            assert parsed.code is code
            assert parsed.message == body.message
            assert parsed.retry_after_s == 0.5
        # JSON carries the slug, not the enum repr.
        assert json.loads(
            ErrorBody(code=ErrorCode.QUEUE_FULL, message="x").encode()
        ) == {"code": "queue_full", "message": "x"}

    def test_error_rejects_unknown_code_and_bad_retry(self):
        with pytest.raises(WireError, match="no known code"):
            ErrorBody.parse(b'{"code": "weird", "message": "m"}')
        with pytest.raises(WireError, match="retry_after_s"):
            ErrorBody.parse(
                b'{"code": "queue_full", "message": "m", "retry_after_s": true}'
            )

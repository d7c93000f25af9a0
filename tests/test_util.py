import json

import numpy as np
import pytest

from hjbsparse.util import json_default


def test_json_default_keeps_bools_bool():
    text = json.dumps({"a": True, "b": np.bool_(False), "c": [np.int64(3), 2.5]}, default=json_default)
    out = json.loads(text)
    assert out == {"a": True, "b": False, "c": [3, 2.5]}
    assert type(out["a"]) is bool and type(out["b"]) is bool and type(out["c"][0]) is int
    assert text == '{"a": true, "b": false, "c": [3, 2.5]}'


def test_json_default_writes_arrays_and_nan_as_json_does():
    text = json.dumps({"m": np.array([[1.0, 0.1], [np.nan, -2.0]]), "v": np.float32(0.5), "nan": np.nan},
                      default=json_default)
    assert text == '{"m": [[1.0, 0.1], [NaN, -2.0]], "v": 0.5, "nan": NaN}'


def test_json_default_refuses_what_json_cannot_write():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json.dumps({"s": {1, 2}}, default=json_default)

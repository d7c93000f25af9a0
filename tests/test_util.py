import json

import numpy as np

from hjbsparse.util import jsonable


def test_jsonable_keeps_bools_bool():
    out = jsonable({"a": True, "b": np.bool_(False), "c": [np.int64(3), 2.5]})
    assert out == {"a": True, "b": False, "c": [3, 2.5]}
    assert type(out["a"]) is bool and type(out["b"]) is bool and type(out["c"][0]) is int
    assert json.dumps(out) == '{"a": true, "b": false, "c": [3, 2.5]}'

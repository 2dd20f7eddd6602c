"""The parameter table and the model drawn over it."""

import hashlib

import pytest

from stsg.autodiff import Tape
from stsg.config import Dims
from stsg.errors import ContractError
from stsg.params import ModelParams, model_shapes

SMALL = Dims(g=3, c=4, h=2, d=5)

# sha256 of `ModelParams.init(...).flat`, taken while `init` still listed every
# layer by hand: pins the draw order, the Glorot scale and the layout order
INIT_SHA256 = {
    (Dims(), 1, 0): "0c1f0e94733b5cad4ca75e73ccbd1e1f9b387de5125518da6fb8b4b3b7e561be",
    (Dims(), 2, 0): "7f640c61bb7117abcffc420bf186ab422364a3628d2092d6119e6baab43f1ef8",
    (Dims(), 3, 0): "3079c237da4a53d05d542b475dd92f0043d48afcb2d2d63dc0468b7013284806",
    (SMALL, 2, 5): "2042e1205292bd55067f9dc4cad17319939939d473b263d39e41c99a8a521a10",
}


@pytest.mark.parametrize("dims, gcn_layers, seed", list(INIT_SHA256),
                         ids=["default-1", "default-2", "default-3", "small-2"])
def test_init_is_pinned(dims, gcn_layers, seed):
    params = ModelParams.init(dims, seed=seed, gcn_layers=gcn_layers)
    digest = hashlib.sha256(params.flat.tobytes()).hexdigest()
    assert digest == INIT_SHA256[dims, gcn_layers, seed]


@pytest.mark.parametrize("dims", [Dims(), SMALL], ids=["default", "small"])
@pytest.mark.parametrize("gcn_layers", [1, 2, 3])
def test_init_layout_is_the_table(dims, gcn_layers):
    shapes = model_shapes(dims, gcn_layers)
    params = ModelParams.init(dims, seed=0, gcn_layers=gcn_layers)
    assert params.layout.names == tuple(shapes)
    assert params.layout.shapes == tuple(shapes.values())
    for name, tensor in params.items():
        if len(shapes[name]) == 1:
            assert not tensor.data.any(), name


@pytest.mark.parametrize("gcn_layers", [1, 3])
def test_watch_all_gives_each_tensor_the_slice_watch_would(gcn_layers):
    # watch_all hands the tape the layout's slices; watching the same tensors
    # one at a time finds the same slices, in the same order
    params = ModelParams.init(SMALL, seed=0, gcn_layers=gcn_layers)
    laid_out, one_by_one = Tape(), Tape()
    params.watch_all(laid_out)
    one_by_one.watch(*(t for _, t in params.items()))
    assert laid_out._leaves == one_by_one._leaves
    assert laid_out._watched == one_by_one._watched
    assert laid_out._tracked_ids == one_by_one._tracked_ids
    assert laid_out._size == one_by_one._size == params.count()
    for name, tensor in params.items():
        cut = laid_out._leaves[id(tensor)]
        assert params.flat[cut].tobytes() == tensor.data.tobytes(), name


def test_watch_laid_out_needs_a_fresh_tape_and_distinct_tensors():
    params = ModelParams.init(SMALL, seed=0)
    tensors = [t for _, t in params.items()]
    tape = Tape()
    tape.watch(tensors[0])
    with pytest.raises(ContractError, match="watch_laid_out"):
        tape.watch_laid_out(tensors, params.layout.slices)
    with pytest.raises(ContractError, match="watch_laid_out"):
        Tape().watch_laid_out([tensors[0]] * 2, params.layout.slices[:2])

import numpy as np
import pytest

from qcc.rand import random_pvm


# random_invertible_channel's "failed to draw an invertible channel" is
# defensive: a Haar-random channel is singular with probability 0, so no
# seed reaches it within INVERTIBLE_TRIES draws.
def test_pvm_ranks_must_partition_the_dimension():
    with pytest.raises(ValueError, match="projector ranks must partition the dimension"):
        random_pvm(np.random.default_rng(0), 3, (1, 1))

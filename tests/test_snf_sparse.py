import random

from forestskein.snf import _dense_factors, _eliminate_units, smith_normal_form


def _dense(m):
    return _dense_factors([row[:] for row in m])


def _sparse_unit_matrix(rng, rows, cols, density, values):
    return [[rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def test_sparse_phase_agrees_with_dense():
    rng = random.Random(1997)
    for _ in range(400):
        rows, cols = rng.randrange(1, 12), rng.randrange(1, 10)
        values = rng.choice([(1, -1), (1, -1, 1, -1, 2, -3), (1, -1, 5)])
        m = _sparse_unit_matrix(rng, rows, cols, rng.choice([0.15, 0.3, 0.6]), values)
        if rng.random() < 0.3:                  # a zero row and a zero column
            m.insert(rng.randrange(rows + 1), [0] * cols)
            j = rng.randrange(cols + 1)
            m = [row[:j] + [0] + row[j:] for row in m]
        if rng.random() < 0.3:                  # a row repeated, and negated
            row = rng.choice(m)
            m += [row[:], [-v for v in row]]
        assert smith_normal_form(m) == _dense(m), m


def test_all_unit_matrices():
    rng = random.Random(24)
    for _ in range(100):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = [[rng.choice((1, -1)) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(m) == _dense(m), m


def test_no_unit_goes_to_the_dense_phase_whole():
    m = [[2, 4, 0], [6, 0, 3], [0, 9, 12]]
    units, residual = _eliminate_units(m)
    assert units == 0 and len(residual) == 3
    assert smith_normal_form(m) == _dense(m)


def test_empty_residual():
    # a unimodular matrix is eliminated completely: n factors 1, no dense phase
    m = [[1, 1, 0], [0, 1, -1], [0, 0, 1]]
    assert _eliminate_units(m) == (3, [])
    assert smith_normal_form(m) == [1, 1, 1]
    assert _eliminate_units([[0, 0], [0, 0]]) == (0, [])
    assert smith_normal_form([]) == [] == smith_normal_form([[]])


def test_relation_matrix_shape():
    # long and thin, two +-1 entries per row, as `present --abelian` makes them
    rng = random.Random(80)
    cols = 30
    m = []
    for _ in range(300):
        row = [0] * cols
        i, j = rng.sample(range(cols), 2)
        row[i], row[j] = 1, rng.choice((1, -1))
        m.append(row)
    m.append([2] + [0] * (cols - 1))
    assert smith_normal_form(m) == _dense(m)

import math

from tailkit import rootfind


def exp_minus_two(points, curvature):
    """e^x - 2, root ln 2, recording each point; its values carry their
    slope, and their curvature too where ``curvature``."""

    def f(x):
        points.append(x)
        return rootfind.sloped(math.exp(x) - 2.0, math.exp(x), math.exp(x) if curvature else 0.0)

    return f


def no_bracket():
    raise AssertionError("the steps should not need a bracket")


class TestHalley:
    def test_converges_cubically_where_values_carry_a_curvature(self):
        points = []
        f = exp_minus_two(points, True)
        x, v = rootfind.illinois(f, no_bracket, 1e-15, start=(2.0, f(2.0)))
        assert abs(x - math.log(2.0)) <= 2e-16 and abs(v) <= 1e-15
        errors = [abs(p - math.log(2.0)) for p in points]
        for before, after in zip(errors, errors[1:]):
            if before > 1e-5:  # above that the cube is below rounding
                assert after <= before**3, errors
        assert len(points) == 5

    def test_newton_where_values_carry_only_a_slope(self):
        halley, newton = [], []
        for points, curvature in ((halley, True), (newton, False)):
            f = exp_minus_two(points, curvature)
            rootfind.illinois(f, no_bracket, 1e-15, start=(2.0, f(2.0)))
        assert len(halley) == 5 and len(newton) == 7


class TestRoundingFloor:
    def test_a_step_within_the_floor_that_does_not_halve_ends_the_search(self):
        # 1 - x carrying its slope, plus a deterministic rounding-like error
        # of up to 1e-9: within it, a Newton step halves |f| only by chance

        def search(f_floor):
            points = []

            def f(x):
                points.append(x)
                return rootfind.sloped(1.0 - x + 1e-9 * math.sin(1e12 * x), -1.0, 0.0)

            x, v = rootfind.illinois(f, no_bracket, 1e-15, start=(1.5, f(1.5)), f_floor=f_floor)
            return x, v, len(points)

        # two steps halve |f|, and the third, from 4.6e-10, does not
        x, v, evaluations = search(1e-8)
        assert abs(x - 1.0) <= 1e-9 and abs(v) <= 5e-10 and evaluations == 4
        # without the floor, Illinois steps on the points seen chase the error
        assert search(0.0)[2] > 10

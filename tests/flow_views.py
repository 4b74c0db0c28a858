"""Score view of a flow field, shared by the flow-model and estimator tests."""

from anisodiff.fields import SpectralJet


class ScoreFromFlow:
    """Score view net = M_t^{-1/2} flow of a flow field."""

    def __init__(self, flow_field, ms):
        self.flow_field = flow_field
        self.ms = ms

    def at(self, x, t):
        ev = self.ms.at(t)
        return SpectralJet(self.flow_field.at(x, t), ev.family, 1.0 / ev.sqrt_g)

    def __call__(self, x, t):
        return self.at(x, t).value()

    def directional(self, x, t, v):
        return self.at(x, t).directional(v)

    def mixed(self, x, t, u, v):
        return self.at(x, t).mixed(u, v)

"""Co-speech gesture synthesis toolkit.

Learns a text-to-gesture sequence model over a low-dimensional pose space,
plans timed generation for arbitrary-length speech, and retargets generated
2D pose tracks onto a 12-DoF humanoid upper body.
"""

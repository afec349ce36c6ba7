"""egonav: retarget egocentric walking trajectories to differential-drive commands."""

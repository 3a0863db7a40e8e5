type stats = { leases : int; hits : int; high_water : int }

(** A subscriber's member list of one group, kept from change notifications.

    It starts from the list a join returned and takes each notified change
    by the server's own rules: a join of a present member replaces its role
    in its slot, so it keeps its place in join order; a new or returning
    member goes to the end; a leave or crash of an absent member does
    nothing. Noting a change stores it in a log, one array write; once the
    log is longer than the list, or when the list is read, one pass applies
    the whole log through an open-addressing index of the members. The
    index and the slot arrays are kept for the next pass, so a change costs
    amortized O(1) and, once the view has reached its size, allocates
    nothing. *)

type t

val of_list : Proto.Types.member list -> t
(** A view holding these members, in this order. *)

val note : t -> Proto.Types.membership_change -> unit
(** Take one change, in the order the server made them. *)

val to_list : t -> Proto.Types.member list
(** The members in join order, every noted change applied. *)

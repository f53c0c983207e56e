# Embedded word lists backing the rule-based caption analysis. All entries lowercase.
# Colors and locations can be overridden at runtime by a user lexicon file; the rest
# are fixed tagging/chunking lexicons.

DETERMINERS = frozenset(
    """a an the this that these those his her its their my your our
    some any no each every another both all""".split()
)

POSSESSIVE_DETERMINERS = frozenset("his her its their my your our".split())

# Copula and modal forms stripped when turning a caption into a yes/no question body.
STOP_AUX = frozenset(
    """is are was were am be been being
    can could will would shall should may might must""".split()
)

AUXILIARIES = STOP_AUX | frozenset("has have had do does did".split())

PREPOSITIONS = frozenset(
    """in on at by with of for to from near under over behind within above below
    beside between against across around through into onto inside outside during
    without along past beneath upon toward towards off up down amid among beyond next""".split()
)

PRONOUNS = frozenset(
    """i you he she it we they me him them us who whom
    someone something anyone anything everyone everything nobody nothing""".split()
)

CONJUNCTIONS = frozenset("and or but nor".split())

ADVERB_WORDS = frozenset(
    """there here very too also really quite just only still already often always
    never sometimes again together almost away back close about""".split()
)

NUMBER_WORDS = {
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "ten": "10", "eleven": "11", "twelve": "12", "thirteen": "13",
    "fourteen": "14", "fifteen": "15", "sixteen": "16", "seventeen": "17",
    "eighteen": "18", "nineteen": "19", "twenty": "20",
}

COLORS = frozenset(
    """red orange yellow green blue purple pink brown black white gray grey
    silver gold golden beige tan maroon navy teal turquoise violet magenta
    cyan olive ivory crimson scarlet lavender indigo""".split()
)

LOCATIONS = frozenset(
    """field city park street road kitchen bathroom bedroom room house home
    building office school library store shop market restaurant cafe bar hotel
    airport station beach ocean sea lake river pond pool forest woods jungle
    desert mountain hill valley meadow garden yard backyard farm barn stable
    zoo aquarium museum church temple stadium arena gym court playground garage
    driveway alley sidewalk plaza square town village countryside harbor port
    dock pier bridge tunnel highway intersection crosswalk corner neighborhood
    suburb downtown mall bakery hallway corridor lobby basement attic closet
    pantry cellar shed greenhouse orchard vineyard pasture prairie swamp marsh
    canyon cliff cave island bay lagoon reef shore coast trail path track runway
    platform terminal warehouse factory mill mine quarry lighthouse castle palace
    tower cathedral chapel mosque shrine cemetery campus classroom cafeteria
    dormitory auditorium theater cinema circus carnival fairground rink slope
    resort spa salon clinic hospital pharmacy bank courthouse prison jail
    box bowl basket bag jar bottle cup mug pot pan bucket bin crate carton
    container vase tank cage kennel nest hive drawer cabinet cupboard shelf
    suitcase purse envelope folder sink tub bathtub oven fridge refrigerator
    freezer trunk tray water sky air grass snow sand mud dirt background
    distance boat car bus train plane airplane truck van kitchenette bleachers
    gallery booth tent stall aisle balcony porch patio deck lawn""".split()
)

PERSON_WORDS = frozenset(
    """man woman girl boy child person kid baby lady guy gentleman player rider
    skier snowboarder surfer skater skateboarder pedestrian officer policeman
    policewoman firefighter worker farmer chef cook waiter waitress teacher
    student doctor nurse soldier athlete runner swimmer cyclist biker driver
    pilot passenger tourist couple crowd family friend mother father mom dad
    sister brother son daughter grandmother grandfather catcher batter pitcher
    umpire referee bride groom clown performer musician singer dancer artist
    photographer""".split()
)

ANIMAL_WORDS = frozenset(
    """dog cat puppy kitten horse cow sheep pig goat bird duck goose chicken
    rooster turkey eagle hawk owl parrot pigeon seagull elephant giraffe zebra
    lion tiger bear wolf fox deer moose rabbit bunny squirrel mouse rat hamster
    monkey ape gorilla chimpanzee panda koala kangaroo camel donkey mule llama
    alpaca dolphin whale shark fish turtle frog snake lizard crocodile alligator
    bee butterfly spider crab lobster penguin flamingo swan peacock ostrich bat
    bull calf lamb cub chick pony""".split()
)

COMMON_ADJECTIVES = frozenset(
    """big small large little old young new long short tall high low empty full
    open closed clean dirty wet dry hot cold warm cool dark bright busy crowded
    quiet loud beautiful pretty ugly happy sad angry tired fast slow early late
    near far deep shallow wide narrow thick thin heavy soft hard smooth rough
    shiny fresh ripe raw wooden metal plastic leather furry fluffy striped
    spotted modern vintage antique fancy plain simple rusty broken sharp round
    flat curved straight tiny huge giant enormous massive double single""".split()
)

# Quantity words with no exact numeric value. They fill the quantifier slot of a
# noun phrase (so answers can drop them) but never produce a counting question.
VAGUE_QUANTIFIERS = frozenset("several many few multiple numerous".split())

COMMON_VERBS = frozenset(
    """sit sits sat stand stands stood wear wears wore hold holds held ride rides
    rode eat eats ate drink drinks drank play plays walk walks run runs ran look
    looks watch watches fly flies flew jump jumps sleep sleeps slept lay lays
    laid lie lies park parks fill fills cover covers surround surrounds set sets
    hang hangs hung stare stares graze grazes lean leans rest rests perch
    perches float floats swim swims swam drive drives drove catch catches caught
    throw throws threw kick kicks hit hits serve serves smile smiles pose poses
    wait waits cross crosses climb climbs slide slides swing swings read reads
    write writes cut cuts feed feeds fed stretch stretches reach reaches point
    points""".split()
)

IRREGULAR_PLURALS = {
    "men": "man",
    "women": "woman",
    "children": "child",
    "people": "person",
    "feet": "foot",
    "teeth": "tooth",
    "mice": "mouse",
    "geese": "goose",
}

ANTONYMS = {
    "big": "small", "small": "big",
    "large": "little", "little": "large",
    "tall": "short", "short": "tall",
    "long": "short",
    "open": "closed", "closed": "open",
    "empty": "full", "full": "empty",
    "young": "old", "old": "young",
    "new": "old",
    "clean": "dirty", "dirty": "clean",
    "wet": "dry", "dry": "wet",
    "hot": "cold", "cold": "hot",
    "dark": "bright", "bright": "dark",
    "black": "white", "white": "black",
    "day": "night", "night": "day",
    "left": "right", "right": "left",
    "up": "down", "down": "up",
}

# Nouns that describe a part or relation rather than a depictable object;
# never selected as question answers.
RELATIONAL_NOUNS = frozenset(
    "front back side top bottom middle center end edge part kind type sort lot way bit piece".split()
)
